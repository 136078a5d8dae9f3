"""Differential test: the one power-kernel cell rule against the per-kernel code it replaced.

Every singular weight in ``sddelab.fraccalc`` now comes from ``_power_cells``.
Before that, each kernel had its own hand-written closed forms.  Those are
kept below, unchanged, as oracles: the three product-integration helpers, the
RL tail weights ``p``/``q``/``r`` and the ``_seminorm_0_alpha`` cell loop,
plus the assembly of ``_norm_1_alpha``, ``delay_norms`` and ``gls_integral``
around them.  The new code is compared with them on fBm paths.
"""

import numpy as np
import pytest
from scipy import special

from sddelab import FbmParams, GridPath, SeedSpec, fraccalc, sample_fbm
from sddelab.fraccalc import _mags
from sddelab.grid import stack_paths

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
        (fraccalc._backward_tail(gv, dt, alpha), old_backward_tail(gv, dt, alpha)),
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
