import numpy as np
import pytest
from scipy import stats

from sddelab import (
    FbmParams,
    GridPath,
    SeedSpec,
    fbm_covariance,
    holder_seminorm,
    sample_fbm,
    sample_wiener,
)
from sddelab import drivers
from sddelab.drivers import DriverNumericsError

from helpers import grid_fn


class TestFbmCovariance:
    def test_brownian_case_is_min(self):
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0)

    def test_zero_time_pins_to_zero(self):
        assert fbm_covariance(0.0, 5.0, 0.75) == 0.0

    def test_closed_form_h075(self):
        # 0.5 * (1 + 2^1.5 - 1) = sqrt(2)
        assert fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("s,t,h", [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (-1.0, 1.0, 0.7)])
    def test_domain_errors(self, s, t, h):
        with pytest.raises(ValueError):
            fbm_covariance(s, t, h)


class TestFbmParams:
    @pytest.mark.parametrize("hurst", [0.5, 0.3, 1.0])
    def test_hurst_must_exceed_half(self, hurst):
        with pytest.raises(ValueError):
            FbmParams(hurst=hurst, n_steps=16, horizon=1.0)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            FbmParams(hurst=0.75, n_steps=1, horizon=1.0)
        with pytest.raises(ValueError):
            FbmParams(hurst=0.75, n_steps=16, horizon=0.0)
        with pytest.raises(ValueError):
            FbmParams(hurst=0.75, n_steps=16, horizon=1.0, method="exact")


@pytest.mark.parametrize("method", ["cholesky", "davies_harte"])
def test_fbm_is_deterministic_per_seed(method):
    params = FbmParams(hurst=0.75, n_steps=64, horizon=1.0, method=method)
    a = sample_fbm(params, SeedSpec(11, 3))
    b = sample_fbm(params, SeedSpec(11, 3))
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_fbm(params, SeedSpec(11, 4))
    assert not np.array_equal(a.values, c.values)


def test_fbm_starts_at_zero_with_full_grid():
    params = FbmParams(hurst=0.6, n_steps=32, horizon=2.0)
    p = sample_fbm(params, SeedSpec(0))
    assert p.values[0, 0] == 0.0
    assert p.n_points == 33
    assert p.dt == pytest.approx(2.0 / 32)


def test_brownian_reduction_increment_variance():
    """H=1/2 increments scaled by sqrt(dt) are standard normal: pooled
    variance within 3 standard errors of 1."""
    params = FbmParams(hurst=0.500001, n_steps=16, horizon=1.0)
    samples = []
    for i in range(2000):
        p = sample_fbm(params, SeedSpec(321, i))
        samples.append(np.diff(p.values[:, 0]) / np.sqrt(p.dt))
    pooled = np.concatenate(samples)
    se = np.sqrt(2.0 / pooled.size)
    assert abs(pooled.var() - 1.0) < 3 * se


def test_empirical_covariance_matches_analytic():
    """Monte Carlo covariance at fixed nodes vs the closed form, 3 SE."""
    params = FbmParams(hurst=0.75, n_steps=64, horizon=1.0)
    m = 4000
    paths = np.empty((m, 65))
    for i in range(m):
        paths[i] = sample_fbm(params, SeedSpec(5150, i)).values[:, 0]
    for s_idx, t_idx in [(16, 32), (32, 64), (16, 64), (48, 64)]:
        s, t = s_idx / 64, t_idx / 64
        prod = paths[:, s_idx] * paths[:, t_idx]
        se = prod.std(ddof=1) / np.sqrt(m)
        assert abs(prod.mean() - fbm_covariance(s, t, 0.75)) < 3 * se


def lapack_factor(n, hurst):
    """Reference factor: the dense fGn covariance, built by fancy index and
    factored by LAPACK."""
    cov = drivers._fgn_autocov(n, hurst)
    idx = np.arange(n)
    return np.linalg.cholesky(cov[np.abs(idx[:, None] - idx[None, :])])


def dense_from_panels(panels, n):
    """Reassemble the stored row panels into L, checking that they tile its
    rows exactly once and that panel i spans the columns up to its last row."""
    out = np.zeros((n, n))
    row = 0
    for p in panels:
        rows, cols = p.shape
        assert 0 < rows <= drivers._PANEL
        assert cols == row + rows
        out[row:cols, :cols] = p
        row = cols
    assert row == n
    return out


SCHUR_CASES = [
    (n, h) for n in (2, 3, 64, 513, 1000) for h in (0.5001, 0.6, 0.75, 0.9, 0.99, 0.9999)
] + [(4096, 0.75)]


@pytest.mark.parametrize("n,hurst", SCHUR_CASES)
def test_schur_factor_matches_lapack(n, hurst):
    """Schur panels against the LAPACK oracle.  The hyperbolic rotations are
    only weakly stable, so the agreement is a tolerance, not bits: factor
    entries (all <= 1) within 1e-12 absolute, paths within 1e-12 of their
    sup norm (measured: at most 1.4e-13 over these cases, and 3.4e-13 at
    n=4096, H=0.5001)."""
    oracle = lapack_factor(n, hurst)
    dense = dense_from_panels(drivers._schur_panels(drivers._fgn_autocov(n, hurst)), n)
    np.testing.assert_array_equal(np.triu(dense, 1), 0.0)
    assert np.abs(dense - oracle).max() <= 1e-12

    params = FbmParams(hurst, n, 1.0, "cholesky")
    seed = SeedSpec(13, 7)
    path = sample_fbm(params, seed).values[:, 0]
    fgn = oracle @ seed.generator().standard_normal(n) * params.dt**hurst
    expected = np.concatenate([[0.0], np.cumsum(fgn)])
    assert np.abs(path - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("cov", [[1.0, 1.0, 1.0], [1.0, 2.0], [1.0, np.nan],
                                 [1.0, 0.5, np.inf]])
def test_schur_rejects_a_covariance_that_is_not_positive_definite(cov):
    """|rho| >= 1 (a singular or indefinite Toeplitz matrix) or a value that
    is not finite is a numerics error naming the column."""
    with pytest.raises(DriverNumericsError, match="column"):
        drivers._schur_panels(np.array(cov))


def test_cholesky_and_davies_harte_agree_in_distribution():
    """Two-sample KS on B(T) passes at the 1% level (pre-registered seeds)."""
    n, m = 128, 4000
    end_ch = np.empty(m)
    end_dh = np.empty(m)
    for i in range(m):
        end_ch[i] = sample_fbm(
            FbmParams(0.75, n, 1.0, "cholesky"), SeedSpec(71, i)
        ).values[-1, 0]
        end_dh[i] = sample_fbm(
            FbmParams(0.75, n, 1.0, "davies_harte"), SeedSpec(72, i)
        ).values[-1, 0]
    assert stats.ks_2samp(end_ch, end_dh).pvalue > 0.01


def test_self_similarity_under_horizon_scaling():
    """B(c t) equals c^H B(t) in law: KS on the endpoint marginal at 5%,
    pre-registered seeds."""
    hurst, c, m = 0.75, 2.0, 2000
    base = np.empty(m)
    scaled = np.empty(m)
    for i in range(m):
        base[i] = sample_fbm(FbmParams(hurst, 64, 1.0), SeedSpec(81, i)).values[-1, 0]
        scaled[i] = (
            sample_fbm(FbmParams(hurst, 64, c), SeedSpec(82, i)).values[-1, 0]
            / c**hurst
        )
    assert stats.ks_2samp(base, scaled).pvalue > 0.05


class TestWiener:
    def test_deterministic(self):
        a = sample_wiener(16, 1.0, 2, SeedSpec(3, 1))
        b = sample_wiener(16, 1.0, 2, SeedSpec(3, 1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_single_increment_mean(self):
        """n=1, T=1: endpoint is standard normal; the mean over many seeds
        stays within 3 standard errors of zero."""
        m = 20000
        ends = np.array(
            [sample_wiener(1, 1.0, 1, SeedSpec(55, i)).values[-1, 0] for i in range(m)]
        )
        assert abs(ends.mean()) < 3.0 / np.sqrt(m)
        assert abs(ends.var() - 1.0) < 3.0 * np.sqrt(2.0 / m)

    def test_coordinates_uncorrelated(self):
        m = 10000
        ends = np.array(
            [sample_wiener(1, 1.0, 2, SeedSpec(56, i)).values[-1] for i in range(m)]
        )
        rho = np.corrcoef(ends.T)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(m)

    def test_variance_is_dt_per_coordinate(self):
        m = 5000
        ends = np.array(
            [sample_wiener(4, 2.0, 1, SeedSpec(57, i)).values[1, 0] for i in range(m)]
        )
        se = np.sqrt(2.0 / m) * 0.5
        assert abs(ends.var() - 0.5) < 3 * se

    @pytest.mark.parametrize("args", [(0, 1.0, 1), (4, 0.0, 1), (4, 1.0, 0)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            sample_wiener(*args, SeedSpec(0))


class TestHolderSeminorm:
    def test_constant_path_is_zero(self):
        p = grid_fn(lambda t: np.full_like(t, 3.7), 0, 1, 32)
        assert holder_seminorm(p, 0.5) == 0.0

    def test_identity_at_half(self):
        # sup (y-x)^(1-lambda) over the unit grid is 1, attained at (0, 1)
        p = grid_fn(lambda t: t, 0, 1, 64)
        assert holder_seminorm(p, 0.5) == pytest.approx(1.0)

    def test_identity_is_lipschitz(self):
        p = grid_fn(lambda t: t, 0, 1, 64)
        assert holder_seminorm(p, 1.0) == pytest.approx(1.0)

    def test_window_restriction(self):
        p = grid_fn(lambda t: np.where(t < 0.5, 0.0, 1.0), 0, 1, 64)
        full = holder_seminorm(p, 0.5)
        tail = holder_seminorm(p, 0.5, window=(0.5, 1.0))
        assert tail < full

    def test_bad_lambda_and_empty_window(self):
        p = grid_fn(lambda t: t, 0, 1, 8)
        with pytest.raises(ValueError):
            holder_seminorm(p, 0.0)
        with pytest.raises(Exception):
            holder_seminorm(GridPath(0.0, 1.0, np.array([1.0])), 0.5)


def test_holder_seminorm_growth_separates_orders_around_hurst():
    """Grid proxy of 'Holder of any order below H only': at lambda < H the
    seminorm is stable under refinement, at lambda > H its median grows."""
    hurst = 0.75
    meds = {}
    for n in (512, 4096):
        vals = {0.70: [], 0.80: []}
        for i in range(100):
            p = sample_fbm(FbmParams(hurst, n, 1.0, "davies_harte"), SeedSpec(90, i))
            for lam in vals:
                vals[lam].append(holder_seminorm(p, lam))
        for lam in vals:
            meds[(lam, n)] = float(np.median(vals[lam]))
    assert meds[(0.80, 4096)] > 1.15 * meds[(0.80, 512)]
    assert meds[(0.70, 4096)] < 1.15 * meds[(0.70, 512)]
