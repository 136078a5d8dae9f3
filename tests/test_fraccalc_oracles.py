"""Differential test: the one power-kernel cell rule against the per-kernel code it replaced.

Every singular weight in ``sddelab.fraccalc`` now comes from ``_power_cells``.
Before that, each kernel had its own hand-written closed forms.  Those are
kept below, unchanged, as oracles: the three product-integration helpers, the
RL tail weights ``p``/``q``/``r`` and the ``_seminorm_0_alpha`` cell loop,
plus the assembly of ``_norm_1_alpha``, ``delay_norms`` and ``gls_integral``
around them.  The new code is compared with them on fBm paths.

The second half pins the replica-blocked, lag-major kernels
(``_seminorm_block``, ``_delay_norm_block``, ``_shift_sups``) against the
per-path loops they replaced, which are kept as oracles too.  Those kernels
index the same weight arrays in the same order of operations, so the
comparison is bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sddelab import FbmParams, GridPath, SeedSpec, fraccalc, sample_fbm
from sddelab.fraccalc import _cell_integrals, _mags, _power_cells, _product_integral
from sddelab.grid import GridError, stack_paths

# Both sides evaluate the same closed-form cell integrals, but in a different
# order of operations (moments as differences of v^(beta+1), sums reversed
# for kernels in b - x or t - s), so they agree to rounding, not bitwise.
# The largest deviation seen over this grid of cases is ~5e-14; 1e-12 leaves
# room for other BLAS/libm builds and still catches any wrong weight, which
# shows up at O(1) relative error.
ORACLE_RTOL = 1e-12

SIZES = (16, 64, 256)
ALPHAS = (0.2, 0.35, 0.45)


# --------------------------------------------------------------------------
# oracles: the per-kernel code replaced by _power_cells


def old_integrate_left_singular(phi, dt, alpha):
    """``int phi(x) (x-a)^(-alpha) dx`` with piecewise-linear phi at nodes."""
    n = len(phi) - 1
    xa = dt * np.arange(n + 1)
    m0 = np.diff(xa ** (1.0 - alpha)) / (1.0 - alpha)
    m1 = np.diff(xa ** (2.0 - alpha)) / (2.0 - alpha)
    slope = np.diff(phi) / dt
    return float(np.sum((phi[:-1] - slope * xa[:-1]) * m0 + slope * m1))


def old_integrate_right_singular(phi, dt, alpha):
    """``int phi(x) (b-x)^(alpha-1) dx`` with piecewise-linear phi at nodes."""
    n = len(phi) - 1
    bx = dt * np.arange(n, -1, -1)
    m0 = (bx[:-1] ** alpha - bx[1:] ** alpha) / alpha
    m1 = (bx[:-1] ** (1.0 + alpha) - bx[1:] ** (1.0 + alpha)) / (1.0 + alpha)
    slope = (phi[:-1] - phi[1:]) / dt  # coefficient of (b - x)
    return float(np.sum((phi[:-1] - slope * bx[:-1]) * m0 + slope * m1))


def old_singular_weighted_integral(h, dt, alpha):
    """``int_0^t h(s) (t-s)^(-1-alpha) ds`` for node data h with h(t) = 0."""
    k = len(h) - 1
    if k == 0:
        return 0.0
    v = dt * np.arange(k, 0, -1)  # t - s at nodes 0..k-1
    e_ts = -np.diff(h) / dt
    c_ts = h[:-1] - e_ts * v
    v_hi = v
    v_lo = np.append(v[1:], 0.0)
    contrib = np.empty(k)
    if k > 1:
        contrib[:-1] = c_ts[:-1] * (v_lo[:-1] ** (-alpha) - v_hi[:-1] ** (-alpha)) / alpha
        contrib[:-1] += (
            e_ts[:-1] * (v_hi[:-1] ** (1.0 - alpha) - v_lo[:-1] ** (1.0 - alpha)) / (1.0 - alpha)
        )
    contrib[-1] = h[-2] * dt ** (-alpha) / (1.0 - alpha)
    return float(np.sum(contrib))


def old_forward_tail(f, dt, alpha):
    n = len(f) - 1
    m = np.arange(n + 1, dtype=float)
    p = np.zeros(n + 1)
    q = np.zeros(n + 1)
    if n >= 2:
        mm = m[2:]
        p[2:] = (mm - 1.0) ** (-alpha) - mm ** (-alpha)
        q[2:] = -mm * p[2:] + (alpha / (1.0 - alpha)) * (
            mm ** (1.0 - alpha) - (mm - 1.0) ** (1.0 - alpha)
        )
    delta = np.diff(f)
    p_cum = np.cumsum(p)
    conv_f = np.convolve(f, p)[: n + 1]
    conv_d = np.convolve(delta, q)[: n + 1]
    tail = np.zeros(n + 1)
    tail[1:] = (
        f[1:] * p_cum[1:] - conv_f[1:] + conv_d[1:] + (alpha / (1.0 - alpha)) * delta
    )
    return tail * dt ** (-alpha)


def old_backward_tail(g, dt, alpha):
    n = len(g) - 1
    m = np.arange(n + 1, dtype=float)
    p = np.zeros(n + 1)
    r = np.zeros(n + 1)
    if n >= 1:
        mm = m[1:]
        p[1:] = mm ** (alpha - 1.0) - (mm + 1.0) ** (alpha - 1.0)
        r[1:] = mm * p[1:] - ((1.0 - alpha) / alpha) * ((mm + 1.0) ** alpha - mm**alpha)
    delta = np.diff(g)
    conv_g = np.convolve(g[:-1][::-1], p)
    conv_d = np.convolve(delta[::-1], r)
    p_cum = np.cumsum(p)
    k = np.arange(n)
    tail = (
        g[:-1] * p_cum[n - 1 - k]
        - conv_g[n - 1 - k]
        + conv_d[n - 1 - k]
        - ((1.0 - alpha) / alpha) * delta
    )
    return tail * dt ** (alpha - 1.0)


def old_norm_1_alpha(values, dt, alpha):
    mags = _mags(values)
    n = len(mags) - 1
    term_a = old_integrate_left_singular(mags, dt, alpha)
    inner = np.zeros(n + 1)
    for k in range(1, n + 1):
        inner[k] = old_singular_weighted_integral(_mags(values[: k + 1] - values[k]), dt, alpha)
    return term_a + float(np.trapezoid(inner[1:], dx=dt)) + inner[1] * dt / (2.0 - alpha)


def old_seminorm_0_alpha(values, dt, alpha):
    n = values.shape[0] - 1
    lags = np.arange(1, n + 1, dtype=float)
    hol_w = (lags * dt) ** (alpha - 1.0)
    w_lo = (lags * dt) ** (alpha - 1.0)
    w_hi = ((lags + 1.0) * dt) ** (alpha - 1.0)
    pow_a = np.concatenate([[0.0], (lags * dt) ** alpha])
    best = 0.0
    for i in range(n):
        h = _mags(values[i:] - values[i])
        m = len(h) - 1
        e = np.diff(h) / dt
        w = dt * np.arange(m, dtype=float)
        c = h[:-1] - e * w
        cells = np.empty(m)
        cells[0] = h[1] * dt ** (alpha - 1.0) / alpha
        if m > 1:
            cells[1:] = c[1:] * (w_lo[: m - 1] - w_hi[: m - 1]) / (1.0 - alpha)
            cells[1:] += e[1:] * (pow_a[2 : m + 1] - pow_a[1:m]) / alpha
        best = max(best, float((h[1:] * hol_w[:m] + np.cumsum(cells)).max()))
    return best


def old_delay_norm_1(vals, k_t, q, dt, alpha):
    m = np.empty(k_t - q + 1)
    m[-1] = 0.0
    for j in range(q, k_t):
        lag = k_t - j
        m[j - q] = float(_mags(vals[lag:] - vals[:-lag]).max())
    return old_singular_weighted_integral(m, dt, alpha)


def old_gls_integral(fv, gv, dt, alpha):
    n = len(fv) - 1
    length = n * dt
    gb = gv - gv[-1]
    tail_f = old_forward_tail(fv, dt, alpha)
    tail_g = np.append(old_backward_tail(gv, dt, alpha), 0.0)
    m0, m1 = fraccalc._beta_cell_moments(alpha, n)
    s = np.linspace(0.0, 1.0, n + 1)
    phi1 = fv * gb
    slope1 = np.diff(phi1) / (1.0 / n)
    i1 = float(np.sum((phi1[:-1] - slope1 * s[:-1]) * m0 + slope1 * m1))
    phi2 = fv * tail_g
    i2 = old_integrate_left_singular(phi2[:-1], dt, alpha)
    i2 += 0.5 * (fv[-2] + fv[-1]) * tail_g[-2] * (length - 0.5 * dt) ** (-alpha) * dt / (1.0 + alpha)
    phi3 = tail_f * gb
    i3 = old_integrate_right_singular(phi3[1:], dt, alpha)
    i3 += 0.5 * (gb[0] + gb[1]) * tail_f[1] * (length - 0.5 * dt) ** (alpha - 1.0) * dt / (2.0 - alpha)
    i4 = float(np.trapezoid((tail_f * tail_g)[1:-1], dx=dt)) if n >= 2 else 0.0
    i4 += 0.5 * (tail_g[0] + tail_g[1]) * tail_f[1] * dt / (2.0 - alpha)
    i4 += 0.5 * (tail_f[-2] + tail_f[-1]) * tail_g[-2] * dt / (1.0 + alpha)
    return -(i1 + i2 + i3 + i4) / (special.gamma(alpha) * special.gamma(1.0 - alpha))


# --------------------------------------------------------------------------


def fbm_path(n, dim, seed):
    """fBm on [-1/4, 3/4] with n cells: a scalar path, or ``dim`` channels stacked."""
    params = FbmParams(0.75, n, 1.0)
    channels = [sample_fbm(params, SeedSpec(seed, j)) for j in range(dim)]
    path = channels[0] if dim == 1 else stack_paths(channels)
    return GridPath(-0.25, path.dt, path.values)


def assert_close(new, old):
    np.testing.assert_allclose(new, old, rtol=ORACLE_RTOL, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_norms_match_the_per_kernel_oracles(n, alpha, dim):
    path = fbm_path(n, dim, seed=700 + n)
    vals, dt = path.values, path.dt
    assert_close(fraccalc._norm_1_alpha(vals, dt, alpha), old_norm_1_alpha(vals, dt, alpha))
    assert_close(
        fraccalc._seminorm_0_alpha(vals, dt, alpha), old_seminorm_0_alpha(vals, dt, alpha)
    )
    t = 0.75 - 8 * dt  # an interior end point, off the last node
    window = path.window(-0.25, t)
    old = old_delay_norm_1(window.values, window.n_points - 1, window.index_of(0.0), dt, alpha)
    assert_close(fraccalc.delay_norms(path, alpha, 0.25, t).norm_1_t, old)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_rl_derivatives_and_gls_match_the_per_kernel_oracles(n, alpha):
    f = fbm_path(n, 1, seed=900 + n)
    g = fbm_path(n, 1, seed=950 + n)
    fv, gv, dt = f.scalar_values(), g.scalar_values(), f.dt
    for new, old in (
        (fraccalc._forward_tail(fv, dt, alpha), old_forward_tail(fv, dt, alpha)),
        (fraccalc._forward_tail(gv[::-1], dt, 1 - alpha)[:0:-1], old_backward_tail(gv, dt, alpha)),
    ):
        scale = np.abs(old).max()
        np.testing.assert_allclose(new, old, rtol=0.0, atol=ORACLE_RTOL * scale)
    # the derivatives add the boundary term to the tails; compare the arrays whole
    x_a = dt * np.arange(1, n + 1)
    old_fwd = (fv[1:] * x_a ** (-alpha) + old_forward_tail(fv, dt, alpha)[1:]) / special.gamma(
        1.0 - alpha
    )
    old_bwd = (
        (gv[:-1] - gv[-1]) * x_a[::-1] ** (alpha - 1.0) + old_backward_tail(gv, dt, alpha)
    ) / special.gamma(alpha)
    for new, old in (
        (fraccalc.forward_rl_derivative(f, alpha).values[:, 0], old_fwd),
        (fraccalc.backward_rl_derivative(g, alpha).values[:, 0], old_bwd),
    ):
        np.testing.assert_allclose(new, old, rtol=0.0, atol=ORACLE_RTOL * np.abs(old).max())
    assert_close(fraccalc.gls_integral(f, g, alpha), old_gls_integral(fv, gv, dt, alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflected_kernels_match_the_oracles_on_the_smallest_grids(n, alpha):
    # the reflection s -> a + b - s and the completed running integrals read
    # the end nodes, where an off-by-one would show on a grid of a few cells
    f, g = (GridPath(0.0, 1.0 / n, fbm_block(n, 1, 1, seed)[0]) for seed in (1500, 1550))
    fv, gv, dt = f.scalar_values(), g.scalar_values(), f.dt
    old_bwd = (
        (gv[:-1] - gv[-1]) * (dt * np.arange(n, 0, -1)) ** (alpha - 1.0)
        + old_backward_tail(gv, dt, alpha)
    ) / special.gamma(alpha)
    new_bwd = fraccalc.backward_rl_derivative(g, alpha).values[:, 0]
    np.testing.assert_allclose(new_bwd, old_bwd, rtol=0, atol=ORACLE_RTOL * np.abs(old_bwd).max())
    assert_close(fraccalc.gls_integral(f, g, alpha), old_gls_integral(fv, gv, dt, alpha))
    for dim in (1, 2):
        vals = fbm_block(n, 1, dim, seed=1600)[0]
        assert_close(fraccalc._norm_1_alpha(vals, dt, alpha), old_norm_1_alpha(vals, dt, alpha))


@pytest.mark.parametrize("beta", [-0.35, -0.65, -1.35, -1.65])
def test_power_cells_integrate_the_kernel(beta):
    # against the antiderivative on a coarse grid; the first cell of m0 is 0
    # exactly when the kernel is not integrable at v = 0
    dt, n = 0.125, 6
    m0, m1 = fraccalc._power_cells(beta, n, dt)
    v = dt * np.arange(n + 1)
    np.testing.assert_allclose(m1, np.diff(v ** (beta + 2)) / (beta + 2), rtol=1e-15)
    np.testing.assert_allclose(m0[1:], np.diff(v[1:] ** (beta + 1)) / (beta + 1), rtol=1e-15)
    assert m0[0] == (0.0 if beta < -1 else dt ** (beta + 1) / (beta + 1))


# --------------------------------------------------------------------------
# oracles: the per-path loops replaced by the lag-major block kernels


def loop_seminorm_0_alpha(values, dt, alpha):
    """One start s at a time: the cell integrals of |g(u)-g(s)| (u-s)^(alpha-2)."""
    n = values.shape[0] - 1
    hol_w = (dt * np.arange(1, n + 1)) ** (alpha - 1.0)
    m0, m1 = _power_cells(alpha - 2.0, n, dt)
    best = 0.0
    for i in range(n):
        h = _mags(values[i:] - values[i])  # h[0] = 0
        integ = np.cumsum(_cell_integrals(h, m0, m1, dt))
        total = h[1:] * hol_w[: n - i] + integ
        cand = float(total.max())
        if cand > best:
            best = cand
    return best


def loop_delay_norms(path, alpha, r, t):
    """One lag at a time: (norm_inf_t, norm_1_t) of one path."""
    p = path.window(-r, t)
    vals = p.values
    k_t = p.n_points - 1
    q = p.index_of(0.0)
    norm_inf = float(_mags(vals).max())
    m = np.empty(k_t - q + 1)
    m[-1] = 0.0
    for j in range(q, k_t):
        lag = k_t - j
        m[j - q] = float(_mags(vals[lag:] - vals[:-lag]).max())
    return norm_inf, _product_integral(m[::-1], -1.0 - alpha, p.dt)


def loop_holder_seminorm(values, dt, lam):
    vals = values if values.ndim == 2 else values[:, None]
    best = 0.0
    for gap in range(1, vals.shape[0]):
        best = max(best, float(_mags(vals[gap:] - vals[:-gap]).max()) / (gap * dt) ** lam)
    return best


# --------------------------------------------------------------------------


def fbm_block(n, replicas, dim, seed):
    """A (replicas, n+1, dim) block of fBm paths on [0, 1], one stream per replica.

    Sampled on at least two cells and restricted, so n = 1 works too.
    """
    n_fine = max(n, 2)
    params = FbmParams(0.75, n_fine, 1.0)
    step = n_fine // n
    return np.stack([
        np.column_stack([
            sample_fbm(params, SeedSpec(seed, r).child(j)).restrict(step).scalar_values()
            for j in range(dim)
        ])
        for r in range(replicas)
    ])


def delay_windows(n, dt):
    """(t0, r, t) triples: history q cells long (q > 0 where the grid allows it),
    t at the path's end and t short of it."""
    q = n // 4 if n >= 4 else n // 2
    out = [(-q * dt, q * dt, (n - q) * dt), (0.0, 0.0, n * dt)]
    short = n - q - max(1, n // 8)
    if short > 0:
        out.append((-q * dt, q * dt, short * dt))
    return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("replicas", [1, 7, 50])
@pytest.mark.parametrize("n", [1, 2, 16, 256])
def test_block_kernels_equal_the_per_path_loops_bitwise(n, replicas, dim):
    block = fbm_block(n, replicas, dim, seed=1100 + n)
    dt, alpha = 1.0 / n, 0.35
    loop = [loop_seminorm_0_alpha(v, dt, alpha) for v in block]
    assert np.array_equal(fraccalc._seminorm_block(block, dt, alpha), loop)
    assert [fraccalc._seminorm_0_alpha(v, dt, alpha) for v in block] == loop
    for t0, r, t in delay_windows(n, dt):
        paths = [GridPath(t0, dt, v) for v in block]
        loop = np.array([loop_delay_norms(p, alpha, r, t) for p in paths])
        norm_inf, norm_1 = fraccalc._delay_norm_block(GridPath(t0, dt, block), alpha, r, t)
        assert np.array_equal(norm_inf, loop[:, 0]) and np.array_equal(norm_1, loop[:, 1])
        single = [fraccalc.delay_norms(p, alpha, r, t) for p in paths]
        assert [(b.norm_inf_t, b.norm_1_t) for b in single] == [tuple(x) for x in loop]


@pytest.mark.parametrize("lam", [0.25, 0.65, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_holder_seminorm_equals_the_per_gap_loop_bitwise(dim, lam):
    values = fbm_block(64, 1, dim, seed=1300)[0]
    path = GridPath(0.0, 1 / 64, values)
    assert fraccalc.holder_seminorm(path, lam) == loop_holder_seminorm(values, 1 / 64, lam)
    if dim == 1:
        flat = values[:, 0]
        path = GridPath(0.0, 1 / 64, flat)
        assert fraccalc.holder_seminorm(path, lam) == loop_holder_seminorm(flat, 1 / 64, lam)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    replicas=st.integers(min_value=1, max_value=9),
    dim=st.sampled_from([1, 2]),
    alpha=st.sampled_from([0.2, 0.35, 0.45]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_each_block_row_equals_its_own_block_of_one(n, replicas, dim, alpha, seed):
    # random-walk rows with widely spread scales; row i of the block must be
    # bit-identical to the kernel run on row i alone
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(replicas, 1, 1))
    block = scale * np.cumsum(rng.standard_normal((replicas, n + 1, dim)), axis=1)
    dt = 1.0 / n
    semi = fraccalc._seminorm_block(block, dt, alpha)
    sups = fraccalc._shift_sups(block, n)
    q = n // 2
    norm_inf, norm_1 = fraccalc._delay_norm_block(GridPath(-q * dt, dt, block), alpha, q * dt,
                                                  (n - q) * dt)
    for i, row in enumerate(block):
        assert semi[i] == fraccalc._seminorm_block(row[None], dt, alpha)[0]
        assert np.array_equal(sups[i], fraccalc._shift_sups(row[None], n)[0])
        one = fraccalc._delay_norm_block(GridPath(-q * dt, dt, row), alpha, q * dt, (n - q) * dt)
        assert (norm_inf[i], norm_1[i]) == (one[0][0], one[1][0])


def test_delay_norms_takes_one_path_not_a_block():
    block = GridPath(-0.25, 1 / 16, fbm_block(16, 3, 1, seed=1400))
    with pytest.raises(GridError, match="one path"):
        fraccalc.delay_norms(block, 0.35, 0.25, 0.5)
