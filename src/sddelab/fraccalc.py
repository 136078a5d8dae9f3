"""Numerical fractional calculus on uniform grids.

Implements forward/backward Riemann-Liouville derivatives of order
``alpha`` / ``1 - alpha``, the generalized Lebesgue-Stieltjes (GLS) integral
built from them, Riemann-Stieltjes sums (the independent oracle), the
Young-Love bound, and the norm families the SDDE estimates are phrased in.

Quadrature strategy, used uniformly for every singular kernel: the grid
function is replaced by its piecewise-linear interpolant and the product with
the kernel is integrated in closed form cell by cell.  This is exact for
piecewise-linear inputs and avoids the blow-up of naive Riemann sums next to
the singularity.  The rule lives in one place: every power kernel ``v^beta``
(the RL tails, the norms, the GLS boundary terms) takes its cell weights from
:func:`_power_cells`, and :func:`_cell_integrals` pairs them with node data;
the RL tail sums them over the lags in one real-FFT product.  Only the
two-sided weight of the GLS integral has its own cell moments
(:func:`_beta_cell_moments`), whose ``betainc`` is the one call outside numpy.

Each singular integral has one one-sided kernel: the reflection
``s -> a + b - s`` turns a right-sided operator into its left-sided twin.  The
backward RL derivative is the forward one of order ``1 - alpha`` read
backwards.  Every gap-based norm reads its gaps ``|v[s+m] - v[s]|`` from one
lag loop, :func:`_gaps`, which advances every start of every replica of a
``(replicas, n, d)`` block at once.  Both fractional norms accumulate them into
running integrals (:func:`_running_integrals`): the driver seminorm takes their
sup, ``||f||_{1,alpha}`` reads the completed ones of the reflected path.  The
delay norm and the Holder seminorm take their per-lag max, the shift sups
(:func:`_shift_sups`).  Each replica's value is bit-identical to the same
kernel run on its path alone, so :func:`_seminorm_0_alpha` and
:func:`delay_norms` are blocks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridPath

__all__ = [
    "NormBundle",
    "DelayNormBundle",
    "forward_rl_derivative",
    "backward_rl_derivative",
    "gls_integral",
    "riemann_stieltjes_integral",
    "young_love_bound",
    "fractional_norms",
    "delay_norms",
    "holder_seminorm",
]

RS_RULES = ("left", "midpoint")  # Riemann-Stieltjes sum rules


@dataclass(frozen=True)
class NormBundle:
    """The four pathwise norms attached to one scalar function and one alpha."""

    norm_1_alpha: float
    seminorm_0_alpha: float
    sup_norm: float
    holder: float


@dataclass(frozen=True)
class DelayNormBundle:
    """Delay norms over [-r, t]; ``norm_t`` is exactly the sum of the parts."""

    norm_inf_t: float
    norm_1_t: float

    @property
    def norm_t(self) -> float:
        return self.norm_inf_t + self.norm_1_t


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _scalar_grid(path: GridPath) -> GridPath:
    if path.n_points < 2:
        raise GridError("need at least two grid points")
    return path


def _pair(f: GridPath, g: GridPath) -> tuple[GridPath, GridPath]:
    """f and g, each of two points at least, on one common grid."""
    if not _scalar_grid(f).same_grid(_scalar_grid(g)):
        raise GridError("f and g must live on a common grid")
    return f, g


def _power_cells(beta: float, n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``int v^beta dv`` and ``int v^(beta+1) dv`` over the cells ``[l dt, (l+1) dt]``.

    One entry per cell ``l = 0..n-1``.  For ``beta < -1`` the first cell of the
    first moment diverges and is returned as 0: such a kernel is only paired
    with node data that vanish at ``v = 0``, whose interpolant has no constant
    part on that cell.
    """
    v = dt * np.arange(n + 1)
    m1 = np.diff(v ** (beta + 2.0)) / (beta + 2.0)
    if beta > -1.0:
        return np.diff(v ** (beta + 1.0)) / (beta + 1.0), m1
    m0 = np.zeros(n)
    m0[1:] = np.diff(v[1:] ** (beta + 1.0)) / (beta + 1.0)
    return m0, m1


def _cell_integrals(h: np.ndarray, m0: np.ndarray, m1: np.ndarray, dt: float) -> np.ndarray:
    """Per-cell integrals of the piecewise-linear interpolant of ``h`` times a kernel.

    ``h`` holds node data at ``v = 0, dt, 2 dt, ...`` along its last axis; on
    cell l the interpolant is ``c + e v``, which pairs with the kernel's cell
    moments ``m0 = int kernel``, ``m1 = int v kernel`` (at least
    ``h.shape[-1] - 1`` cells of them, from :func:`_power_cells` or
    :func:`_beta_cell_moments`).
    """
    k = h.shape[-1] - 1
    e = np.diff(h) / dt
    c = h[..., :-1] - e * (dt * np.arange(k))
    return c * m0[:k] + e * m1[:k]


def _product_integral(h: np.ndarray, beta: float, dt: float) -> float:
    """``int_0^(k dt) h(v) v^beta dv`` for node data h at ``v = 0, dt, ..., k dt``."""
    m0, m1 = _power_cells(beta, len(h) - 1, dt)
    return float(np.sum(_cell_integrals(h, m0, m1, dt)))


def _forward_tail(f: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """``alpha * int_a^x (f(x)-f(u)) (x-u)^(-1-alpha) du`` at nodes 1..n.

    Piecewise-linear product integration in units of ``dt``: the cell at lag
    m >= 2 weighs ``f(u)`` through ``p(m)`` and its slope through ``q(m)``;
    the cell adjacent to the singularity reduces to its slope term.  Both lag
    sums are one real-FFT product of a length above 2n, so none wraps into 0..n.
    """
    n = len(f) - 1
    m0, m1 = _power_cells(-1.0 - alpha, n, 1.0)
    p = np.zeros(n + 1)
    q = np.zeros(n + 1)
    p[2:] = alpha * m0[1:]
    q[2:] = alpha * (m1[1:] - np.arange(2.0, n + 1) * m0[1:])
    delta = np.diff(f)
    size = 1 << (2 * n).bit_length()
    rfft = np.fft.rfft
    sums = np.fft.irfft(rfft(f, size) * rfft(p, size) - rfft(delta, size) * rfft(q, size), size)
    tail = np.zeros(n + 1)
    tail[1:] = f[1:] * np.cumsum(p)[1:] - sums[1 : n + 1] + alpha * m1[0] * delta
    return tail * dt ** (-alpha)


def forward_rl_derivative(f: GridPath, alpha: float) -> GridPath:
    """Forward Riemann-Liouville derivative of order alpha on (a, b], the grid of f.

    Returned on the grid nodes ``a + dt, ..., b``; the kernel is singular at
    ``x = a`` so no value is produced there.
    """
    _check_alpha(alpha)
    p = _scalar_grid(f)
    vals = p.scalar_values()
    n = p.n_points - 1
    x_minus_a = p.dt * np.arange(1, n + 1)
    tail = _forward_tail(vals, p.dt, alpha)[1:]
    deriv = (vals[1:] * x_minus_a ** (-alpha) + tail) / math.gamma(1.0 - alpha)
    return GridPath(p.t0 + p.dt, p.dt, deriv)


def backward_rl_derivative(g: GridPath, alpha: float) -> GridPath:
    """Backward Riemann-Liouville derivative of order ``1 - alpha`` on [a, b),
    the grid of g.

    Acts on ``g_{b-}(x) = g(x) - g(b)`` and uses the real-valued convention:
    the complex phase of the textbook definition is dropped here and accounted
    for in :func:`gls_integral`.  The reflection ``s -> a + b - s`` turns it
    into the forward derivative of order ``1 - alpha`` of ``g(b - .) - g(b)``,
    read backwards.
    """
    _check_alpha(alpha)
    p = _scalar_grid(g)
    vals = p.scalar_values()
    reflected = GridPath(p.t0, p.dt, vals[::-1] - vals[-1])  # s -> a + b - s
    deriv = forward_rl_derivative(reflected, 1.0 - alpha).values[::-1]
    return GridPath(p.t0, p.dt, deriv)


def _beta_cell_moments(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell integrals of ``s^-alpha (1-s)^(alpha-1)`` and ``s * (same)`` on [0,1],
    from ``B(1-alpha, alpha) = Gamma(alpha) Gamma(1-alpha)`` and ``B(2-alpha, alpha)
    = (1-alpha) B(1-alpha, alpha)``."""
    from scipy import special  # heavy import, needed only for betainc

    b0 = math.gamma(alpha) * math.gamma(1.0 - alpha)
    s = np.linspace(0.0, 1.0, n + 1)
    c0 = b0 * special.betainc(1.0 - alpha, alpha, s)
    c1 = (1.0 - alpha) * b0 * special.betainc(2.0 - alpha, alpha, s)
    return np.diff(c0), np.diff(c1)


def gls_integral(f: GridPath, g: GridPath, alpha: float) -> float:
    """Generalized Lebesgue-Stieltjes integral of f against dg.

    Computed from its definition as the weighted integral of the product of
    the two fractional derivatives.  The integrand is split into four terms
    (singular boundary factors times smooth node data) and each term is
    integrated with kernel-exact product quadrature; the Holder cusps of the
    derivative tails at the interval ends get matched-exponent end cells.
    """
    _check_alpha(alpha)
    pf, pg = _pair(f, g)
    fv = pf.scalar_values()
    gv = pg.scalar_values()
    n = pf.n_points - 1
    dt = pf.dt
    length = n * dt

    gb = gv - gv[-1]
    tail_f = _forward_tail(fv, dt, alpha)  # cusp ~ (x-a)^(1-alpha), zero at a
    # the backward tail is the forward one of order 1 - alpha on the reflected
    # path; cusp ~ (b-x)^alpha, 0 at b (the reflected start)
    tail_g = _forward_tail(gv[::-1], dt, 1.0 - alpha)[::-1]

    # I1: f * g_b against the two-sided weight (x-a)^-alpha (b-x)^(alpha-1).
    i1 = float(np.sum(_cell_integrals(fv * gb, *_beta_cell_moments(alpha, n), 1.0 / n)))
    # the s-substitution leaves a total length factor of one: L^-a * L^(a-1) * L

    # I2: f * tail_g against (x-a)^-alpha; cusp-modelled last cell.
    phi2 = fv * tail_g
    i2 = _product_integral(phi2[:-1], -alpha, dt)
    w_last = (length - 0.5 * dt) ** (-alpha)
    i2 += 0.5 * (fv[-2] + fv[-1]) * tail_g[-2] * w_last * dt / (1.0 + alpha)

    # I3: tail_f * g_b against (b-x)^(alpha-1); cusp-modelled first cell.
    phi3 = tail_f * gb
    i3 = _product_integral(phi3[:0:-1], alpha - 1.0, dt)  # v = b - x
    w_first = (length - 0.5 * dt) ** (alpha - 1.0)
    i3 += 0.5 * (gb[0] + gb[1]) * tail_f[1] * w_first * dt / (2.0 - alpha)

    # I4: tail_f * tail_g, smooth interior, cusp end cells.
    phi4 = tail_f * tail_g
    i4 = float(np.trapezoid(phi4[1:-1], dx=dt)) if n >= 2 else 0.0
    i4 += 0.5 * (tail_g[0] + tail_g[1]) * tail_f[1] * dt / (2.0 - alpha)
    i4 += 0.5 * (tail_f[-2] + tail_f[-1]) * tail_g[-2] * dt / (1.0 + alpha)

    # Net sign: the two dropped phases multiply to exp(i*pi) = -1.
    return -(i1 + i2 + i3 + i4) / (math.gamma(alpha) * math.gamma(1.0 - alpha))


def riemann_stieltjes_integral(f: GridPath, g: GridPath, rule: str = "left") -> float:
    """Riemann-Stieltjes sum of f against the increments of g.

    ``midpoint`` evaluates f at cell midpoints through linear interpolation,
    i.e. averages the endpoint values.
    """
    if rule not in RS_RULES:
        raise ValueError(f"rule must be 'left' or 'midpoint', got {rule!r}")
    pf, pg = _pair(f, g)
    fv = pf.scalar_values()
    dg = np.diff(pg.scalar_values())
    weights = fv[:-1] if rule == "left" else 0.5 * (fv[:-1] + fv[1:])
    return float(np.sum(weights * dg))


def young_love_bound(f: GridPath, g: GridPath, lam: float, mu: float) -> float:
    """Right-hand side of the Young-Love inequality for ``|int f dg|`` over the
    common grid of f and g.

    The constant is fixed to the classical sewing value
    ``(1 - 2^(1-lam-mu))^-1``, admissible whenever ``lam + mu > 1``.
    """
    if lam + mu <= 1.0:
        raise ValueError(f"need lambda + mu > 1, got {lam} + {mu}")
    pf, pg = _pair(f, g)
    length = (pf.n_points - 1) * pf.dt
    c = 1.0 / (1.0 - 2.0 ** (1.0 - lam - mu))
    sup_f = float(np.max(np.abs(pf.scalar_values())))
    sem_f = holder_seminorm(pf, lam)
    sem_g = holder_seminorm(pg, mu)
    return c * sem_g * (sup_f + sem_f * length**lam) * length**mu


def _mags(values: np.ndarray) -> np.ndarray:
    """Pointwise magnitudes of an (..., n, d) value array: |.| or the Euclidean
    norm.  Where the norm squares a finite node past the float range (from
    about 1.3e154) it is taken again scaled by the largest component."""
    if values.shape[-1] == 1:
        return np.abs(values[..., 0])
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.linalg.norm(values, axis=-1)
        if np.isinf(mags).any():
            top = np.abs(values).max(axis=-1)
            scaled = top * np.linalg.norm(values / top[..., None], axis=-1)
            mags = np.where(np.isinf(mags) & np.isfinite(top), scaled, mags)
    return mags


def _gaps(values: np.ndarray, max_lag: int):
    """``|v[s+m] - v[s]|`` at lag m = 1..max_lag, an ``(n-m, replicas)`` array
    over the starts s of a ``(replicas, n, d)`` block.  The block is copied
    start-major once, so the prefix slices of every lag are contiguous."""
    vals = np.ascontiguousarray(np.moveaxis(values, 1, 0))
    for m in range(1, max_lag + 1):
        yield _mags(vals[m:] - vals[:-m])


def _shift_sups(values: np.ndarray, max_lag: int) -> np.ndarray:
    """``max_k |v[k+lag] - v[k]|``, the max of :func:`_gaps`, per replica of a
    block: shape ``(replicas, max_lag)``, column ``lag - 1`` for each lag."""
    sups = [gap.max(axis=0) for gap in _gaps(values, max_lag)]
    return np.array(sups).reshape(max_lag, len(values)).T


def _running_integrals(values: np.ndarray, dt: float, beta: float):
    """Lag-major running integrals of ``|v(u) - v(s)| (u-s)^beta``, beta < -1.

    ``values`` is a ``(replicas, n+1, d)`` block.  At lag m = 1..n this yields
    ``(m, h, integ)``, arrays of shape ``(n+1-m, replicas)`` over the starts
    s = 0..n-m of all replicas: ``h`` is the gap of :func:`_gaps` and
    ``integ`` the integral up to ``u = s + m dt``, accumulated cell by cell in
    the order of a cumulative sum over u.  So each replica's values are
    bit-identical to a start-by-start loop over its path, and the last start,
    s = n - m, has its integral complete to the end of the path.
    """
    n = values.shape[1] - 1
    m0, m1 = _power_cells(beta, n, dt)
    cell_lo = dt * np.arange(n)  # left end of cell m-1, as u - s
    h_lo = integ = np.zeros((n + 1, len(values)))  # lag 0; no cell is -0.0, so 0.0 + cell == cell
    for m, h in enumerate(_gaps(values, n), start=1):
        e = (h - h_lo[:-1]) / dt
        cell = (h_lo[:-1] - e * cell_lo[m - 1]) * m0[m - 1] + e * m1[m - 1]
        integ = integ[:-1] + cell
        yield m, h, integ
        h_lo = h


def _seminorm_block(values: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """:func:`_seminorm_0_alpha` of every replica of a ``(replicas, n+1, d)`` block.

    The sup over the starts and lags of :func:`_running_integrals` with the
    kernel ``(u-s)^(alpha-2)``, plus the Holder term ``h (t-s)^(alpha-1)``.
    """
    hol_w = (dt * np.arange(1, values.shape[1])) ** (alpha - 1.0)
    best = np.zeros(values.shape[0])
    for m, h, integ in _running_integrals(values, dt, alpha - 2.0):
        cand = (h * hol_w[m - 1] + integ).max(axis=0)
        best = np.where(cand > best, cand, best)
    return best


def _seminorm_0_alpha(values: np.ndarray, dt: float, alpha: float) -> float:
    """``sup_{s<t} ( |g(t)-g(s)|/(t-s)^(1-alpha) + int_s^t |g(u)-g(s)|/(u-s)^(2-alpha) du )``.

    One (n+1, d) path: the block kernel on a block of one.
    """
    return float(_seminorm_block(values[None], dt, alpha)[0])


def _norm_1_alpha(values: np.ndarray, dt: float, alpha: float) -> float:
    """``int_a^b ( |f(t)|/(t-a)^alpha + int_a^t |f(t)-f(s)|/(t-s)^(1+alpha) ds ) dt``.

    On the path reflected at b the inner integral at ``t_m = a + m dt`` is the
    running integral of :func:`_running_integrals` from the start ``b - t_m``,
    which is complete (it reaches the end) at lag m.
    """
    term_a = _product_integral(_mags(values), -alpha, dt)
    inner = np.zeros(values.shape[0])
    for m, _, integ in _running_integrals(values[None, ::-1], dt, -1.0 - alpha):
        inner[m] = integ[-1, 0]
    # inner(t) vanishes at a like (t-a)^(1-alpha): cusp-matched first cell.
    term_b = float(np.trapezoid(inner[1:], dx=dt)) + inner[1] * dt / (2.0 - alpha)
    return term_a + term_b


def holder_seminorm(path: GridPath, lam: float) -> float:
    """Grid Holder seminorm: ``max over x < y of |f(y)-f(x)| / (y-x)^lam``.

    Vector paths use the Euclidean norm of the difference.  The supremum runs
    over grid pairs only; refinement studies quantify the proxy error.
    """
    p = _scalar_grid(path)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    n = p.n_points - 1
    # Python-scalar weights: a vectorized numpy power rounds some of them differently.
    weights = np.array([(gap * p.dt) ** lam for gap in range(1, n + 1)])
    return float(np.max(_shift_sups(p.values[None], n)[0] / weights, initial=0.0))


def fractional_norms(f: GridPath, alpha: float, lam: float | None = None) -> NormBundle:
    """All four norms of one path over its grid.

    ``lam`` selects the Holder exponent of the reported seminorm; it defaults
    to ``1 - alpha``, the pairing exponent of the Young regime.
    """
    _check_alpha(alpha)
    p = _scalar_grid(f)
    lam = 1.0 - alpha if lam is None else lam
    return NormBundle(
        norm_1_alpha=_norm_1_alpha(p.values, p.dt, alpha),
        seminorm_0_alpha=_seminorm_0_alpha(p.values, p.dt, alpha),
        sup_norm=float(_mags(p.values).max()),
        holder=holder_seminorm(p, lam),
    )


def _delay_norm_block(
    f: GridPath, alpha: float, r: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """``norm_inf_t`` and ``norm_1_t`` of :func:`delay_norms` for every replica.

    ``f`` is a single path (a block of one) or a replica block; both results
    have one entry per replica.
    """
    _check_alpha(alpha)
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    f.index_of(-r, "r"), f.index_of(t, "t")  # an end off the path names its parameter
    p = f.window(-r, t)
    vals = p.values if p.replicas is not None else p.values[None]
    n_lags = p.n_points - 1 - p.index_of(0.0, "r")
    # h[:, k] = sup over u in [-r, t - k dt] of |f(u + k dt) - f(u)|: the shift
    # sup at distance k dt = t - s from the kernel singularity, 0 at k = 0.
    h = np.zeros((vals.shape[0], n_lags + 1))
    h[:, 1:] = _shift_sups(vals, n_lags)
    m0, m1 = _power_cells(-1.0 - alpha, n_lags, p.dt)
    return _mags(vals).max(axis=1), _cell_integrals(h, m0, m1, p.dt).sum(axis=-1)


def delay_norms(f: GridPath, alpha: float, r: float, t: float) -> DelayNormBundle:
    """Delay norms of a path over ``[-r, t]`` with kernel ``(t-s)^(-1-alpha)``.

    The integral norm averages the sup distance between the path and its
    time shift; the shifted-sup factor vanishes at the kernel singularity at
    the Holder rate of the path, which keeps the integrand integrable.
    """
    if f.replicas is not None:
        raise GridError(f"delay_norms takes one path, got a block of {f.replicas}")
    (norm_inf,), (norm_1,) = _delay_norm_block(f, alpha, r, t)
    return DelayNormBundle(norm_inf_t=float(norm_inf), norm_1_t=float(norm_1))
