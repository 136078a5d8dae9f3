"""Shared helpers for the test suite."""

import math
from types import SimpleNamespace

import numpy as np

from sddelab import GridPath
from sddelab.core import (
    AssumptionReport,
    CheckResult,
    CoeffBlock,
    DELAY_READS,
    CoefficientSpec,
    HolderParams,
    InitialCondition,
    Segment,
    eval_coefficient,
    segment_at,
)
from sddelab.fraccalc import _power_cells
from sddelab.grid import GridError, refinement, same_time
from sddelab.solver import (
    MollifierParams,
    _row_groups,
    SolverConfig,
    SolverExplosionError,
    _align_driver,
    _clamp,
    _history_values,
    _interpolate,
    _reach_steps,
)


def stack_replicas(paths: list) -> GridPath:
    """Stack paths on a common grid into a replica block, in list order."""
    head = paths[0]
    if not all(head.same_grid(p) for p in paths[1:]):
        raise GridError("paths are not on a common grid")
    return GridPath(head.t0, head.dt, np.stack([p.values for p in paths]))


def grid_fn(fn, a: float, b: float, n: int) -> GridPath:
    """Sample a callable on the uniform grid over [a, b] with n cells."""
    t = np.linspace(a, b, n + 1)
    return GridPath(a, (b - a) / n, fn(t))


def standard_params(alpha: float = 0.35) -> HolderParams:
    """Exponent bundle used throughout the suite (fBm with H = 3/4)."""
    return HolderParams(gamma=0.7, alpha=alpha, theta=0.45, hurst=0.75, beta=1.0)


def window_spec(span: float, gain_delay: float = 1.0) -> CoefficientSpec:
    """Drift = ``gain_delay`` times the window integral of psi over [-span, 0];
    no other term."""
    zero = CoeffBlock.build(1, 1)
    return CoefficientSpec("distributed_delay", 1, 1, 1,
                           CoeffBlock.build(1, 1, gain_delay=gain_delay), zero, zero,
                           delay_span=span)


def trig_pair(rng: np.random.Generator, n: int = 512, degree: int = 5):
    """A random pair of smooth trigonometric polynomials on [0, 1]."""
    t = np.linspace(0.0, 1.0, n + 1)

    def poly():
        vals = np.zeros_like(t)
        for k in range(1, degree + 1):
            ak, bk = rng.normal(size=2) / k
            vals += ak * np.cos(np.pi * k * t) + bk * np.sin(np.pi * k * t)
        return vals

    return GridPath(0.0, 1.0 / n, poly()), GridPath(0.0, 1.0 / n, poly())


# --------------------------------------------------------------------------
# Oracle of the history read: the three-branch rule the solver used before it
# read every history through its linear interpolant.  It only accepted grids
# that nest with the history's step, or a constant history on any grid.


def nesting_history_values(eta: InitialCondition, dt: float, q: int) -> np.ndarray:
    """The history on the solver grid, ``(q + 1, d)`` with q = r / dt: every
    m-th node of a finer history, or a coarser one laid on the grid by linear
    interpolation between its nodes, each of which keeps its value.  A
    constant history is the same on any grid, so it is also laid on a grid
    that does not nest with its own."""
    path = eta.eta
    if not q:
        return path.values[-1:].copy()
    fine = q > path.n_points - 1  # the solver grid refines the history's
    try:
        m = (refinement(path.dt, dt, "solver grid") if fine
             else refinement(dt, path.dt, "initial condition grid"))
    except GridError:
        if (path.values != path.values[-1]).any():
            raise
        return np.repeat(path.values[-1:], q + 1, axis=0)
    if fine:
        j, k = np.divmod(np.arange(q + 1), m)
        lo, hi = path.values[j], path.values[np.minimum(j + 1, path.n_points - 1)]
        return np.where((k == 0)[:, None], lo, lo + (k / m)[:, None] * (hi - lo))
    return path.restrict(m).values[-q - 1:].copy()


# --------------------------------------------------------------------------
# Oracle of the mollified Ito scheme: the general per-step loop, which
# evaluates arbitrary ``(t, psi)`` callables on a segment view at every step
# and advances a clock on the drivers they may read, so that a read of the
# future raises.  The compiled stepper must reproduce it.


class AdaptednessError(RuntimeError):
    """A random coefficient tried to read driver values from the future."""


class GuardedDriver:
    """Clock-gated, interpolating, read-only view of a driver path."""

    def __init__(self, path: GridPath):
        self._path = path
        self._clock = -np.inf

    def advance(self, t: float) -> None:
        self._clock = t

    def value(self, s: float) -> np.ndarray:
        if s > self._clock + 1e-12:
            raise AdaptednessError(
                f"driver value at s={s} requested while the clock is at {self._clock}"
            )
        return _interpolate(self._path, s)


class GuardedMollifiedDrift:
    """Random drift ``f(t, psi) = a(t, psi) + c(t, psi) @ dZ^N/dt (t)`` that
    reads its driver through a :class:`GuardedDriver`.

    The derivative of the mollified driver is ``N (h(t) - h(max(t - 1/N, 0)))``
    with h the linear interpolant of the clamped nodes ``clamp_N Z(t_k)``: the
    guard views the clamped node path.
    """

    def __init__(self, spec, Z: GridPath, level: int):
        self.spec = spec
        self.level = MollifierParams(level)
        self.driver = Z
        self.guard = GuardedDriver(GridPath(Z.t0, Z.dt, _clamp(Z.values, float(level))))

    def zdot(self, t: float) -> np.ndarray:
        now = self.guard.value(t)
        past = self.guard.value(max(t - self.level.window, 0.0))
        return float(self.level.level) * (now - past)

    def __call__(self, t: float, psi) -> np.ndarray:
        a = eval_coefficient(self.spec, "a", t, psi)
        c = eval_coefficient(self.spec, "c", t, psi)
        return a + (c * self.zdot(t)).sum(axis=-1)


# --------------------------------------------------------------------------
# Oracles of the mollified driver: dZ^N/dt as the Ito stepper tabulated it
# before :meth:`MollifiedDrift.zdot` became its only definition, and Z^N with
# its own interpolation of the window's first cell.


def oracle_zdot(Z: GridPath, params: MollifierParams, t):
    """dZ^N/dt of :func:`mollify_driver` at the time(s) ``t``: ``N (h(t) -
    h(max(t - 1/N, 0)))``, h the linear interpolant of ``clamp_N Z(t_k)``."""
    lvl = float(params.level)
    h = GridPath(Z.t0, Z.dt, _clamp(Z.values, lvl))
    return lvl * (_interpolate(h, t) - _interpolate(h, np.maximum(t - params.window, 0.0)))


def oracle_mollify_driver(Z: GridPath, level: int) -> GridPath:
    """Moving window average of the norm-clamped driver.

    ``Z^N(t) = N * integral over [t - 1/N, t] of h(s) ds`` on the grid of Z,
    with h the linear interpolant of the clamped nodes ``clamp_N Z(t_k)`` and
    ``h(s) = h(0)`` for s < 0, so ``Z^N(0) = clamp_N Z(0)``; the window
    boundary is an exact fractional first cell.  The output is absolutely
    continuous (Lipschitz) and converges to Z uniformly as the level grows.
    """
    params = MollifierParams(level)
    if not same_time(Z.t0, 0.0):
        raise GridError("driver must start at time 0")
    if not params.resolves(Z.dt):
        raise GridError(
            f"grid step {Z.dt} too coarse for mollifier level {level}: "
            f"need dt <= {params.max_dt}"
        )
    n = Z.n_points - 1
    dt = Z.dt
    h = _clamp(Z.values, float(level))
    cum = np.vstack(
        [np.zeros((1, Z.dim)), np.cumsum(0.5 * (h[:-1] + h[1:]) * dt, axis=0)]
    )
    k = np.arange(n + 1)
    s0 = k * dt - params.window
    out = np.empty_like(h)
    inside = s0 <= 0.0
    out[inside] = cum[k[inside]] - s0[inside, None] * h[0]
    if np.any(~inside):
        kk = k[~inside]
        j0 = np.floor(s0[~inside] / dt).astype(int)
        theta = s0[~inside] / dt - j0
        h_s0 = h[j0] + theta[:, None] * (h[j0 + 1] - h[j0])
        partial = 0.5 * (h_s0 + h[j0 + 1]) * ((j0 + 1) * dt - s0[~inside])[:, None]
        out[~inside] = partial + cum[kk] - cum[j0 + 1]
    return GridPath(0.0, dt, float(level) * out)


def coefficient(spec, which: str):
    """One coefficient of a spec as a plain ``(t, psi) -> array`` callable."""
    return lambda t, psi: eval_coefficient(spec, which, t, psi)


def callable_ito(drift, diffusion, theta, W: GridPath, cfg, guarded: tuple = ()) -> GridPath:
    """Euler-Maruyama path of an Ito delay equation with (possibly random)
    coefficients ``drift(t, psi)`` and ``diffusion(t, psi)``, one step at a
    time on a single path.

    Random coefficients must be adapted: every :class:`GuardedDriver` in
    ``guarded`` is advanced to the current step time before evaluation, so an
    evaluator that asks for future driver values raises
    :class:`AdaptednessError`.
    """
    n, q, dt = cfg.n_steps, theta.steps(cfg.dt), cfg.dt
    hist = _history_values(theta, q)
    dim = hist.shape[1]
    w = _align_driver(W, cfg, W.dim, "W")
    if w.replicas is not None:
        raise GridError("the per-step loop solves a single path, not a replica block")
    dw = np.diff(w.values, axis=0)
    buf = np.empty((q + n + 1, dim))
    buf[: q + 1] = hist
    live = SimpleNamespace(values=buf, dt=dt)  # segments view the buffer, no copies
    threshold = cfg.explosion_threshold
    for k in range(n):
        i = q + k
        t = k * dt
        for guard in guarded:
            guard.advance(t)
        psi = Segment(live, i, q)
        f = np.asarray(drift(t, psi), dtype=float).reshape(dim)
        g = np.asarray(diffusion(t, psi), dtype=float).reshape(dim, w.dim)
        x_new = buf[i] + f * dt + (g * dw[k]).sum(axis=-1)
        mag = float(np.linalg.norm(x_new))
        if mag > threshold:
            raise SolverExplosionError((k + 1) * dt, mag, threshold)
        buf[i + 1] = x_new
    return GridPath(-theta.r, dt, buf)


def mollified_ito_oracle(spec, eta, w: GridPath, z: GridPath, cfg, level: int) -> GridPath:
    """The mollified Ito equation of ``spec`` at ``level``, solved by
    :func:`callable_ito` with the driver guarded."""
    drift = GuardedMollifiedDrift(spec, z, level)
    return callable_ito(drift, coefficient(spec, "b"), eta, w, cfg, guarded=(drift.guard,))


# --------------------------------------------------------------------------
# Oracle of the assumption sweep: the per-probe loops that ``check_assumptions``
# ran before it evaluated every probe at once through the compiled columns.
# One ``eval_coefficient`` call per coefficient and probe, one worst/witness
# loop per check; the batched sweep must reproduce its pass flags, and every
# field for scalar specs.


def _total_magnitude(spec: CoefficientSpec, t: float, psi: Segment) -> float:
    a = eval_coefficient(spec, "a", t, psi)
    b = eval_coefficient(spec, "b", t, psi)
    c = eval_coefficient(spec, "c", t, psi)
    return float(np.linalg.norm(a) + np.linalg.norm(b) + np.linalg.norm(c))


def _probe_segments(spec: CoefficientSpec, rng, budget: int, n_seg: int):
    """Deterministic scale rays first, then random rough segments."""
    r = spec.reach or 0.25  # so that every delay read lands on the probe grid
    dt = r / n_seg

    def seg_from(values: np.ndarray) -> Segment:
        return segment_at(GridPath(-r, dt, values), 0.0, r)

    probes = []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        for axis in range(spec.dim):
            vals = np.zeros((n_seg + 1, spec.dim))
            vals[:, axis] = scale
            probes.append(seg_from(vals))
    for _ in range(budget):
        scale = 10.0 ** rng.uniform(-1, 1)
        rough = np.cumsum(rng.standard_normal((n_seg + 1, spec.dim)), axis=0)
        probes.append(seg_from(scale * rough / max(1.0, np.abs(rough).max())))
    return probes


def loop_check_assumptions(
    spec: CoefficientSpec,
    params: HolderParams,
    sample_budget: int = 200,
    claimed: dict[str, float] | None = None,
    eta: InitialCondition | None = None,
    seed: int = 0,
) -> AssumptionReport:
    """The per-probe sweep of :func:`sddelab.core.check_assumptions`.

    Checks linear growth, the bound on the segment derivative of the
    z-coefficient, local Lipschitz continuity of drift and diffusion,
    time-Holder continuity of the z-coefficient, and Holder continuity of
    the initial condition.  Closed-form constants of the family are used as
    the claimed values unless overridden through ``claimed``.  A pass means
    no violation was found within the budget; it is evidence, not proof.
    """
    rng = np.random.default_rng(seed)
    claimed = claimed or {}
    k1 = claimed.get("K", spec.growth_constant())
    k2 = claimed.get("K2", spec.zderivative_bound())
    k3 = claimed.get("K_R", spec.lipschitz_constant())
    k4 = claimed.get("K_time", spec.time_holder_constant())
    beta = claimed.get("beta", params.beta)
    slack = 1.0 + 1e-9

    segs = _probe_segments(spec, rng, sample_budget, n_seg=32)
    times = rng.uniform(0.0, 1.0, size=len(segs))

    # linear growth in the segment sup norm
    worst1, wit1 = 0.0, ""
    for t, psi in zip(times, segs):
        ratio = _total_magnitude(spec, t, psi) / (1.0 + psi.sup_norm())
        if ratio > worst1:
            worst1, wit1 = ratio, f"||psi||={psi.sup_norm():.3g}, t={t:.3g}"
    res1 = CheckResult("linear_growth", worst1 <= k1 * slack, k1, worst1, wit1)

    # bounded segment derivative of c, via directional difference quotients
    worst2, wit2 = 0.0, ""
    eps = 1e-6
    for t, psi in zip(times[: sample_budget // 2 + 1], segs):
        direction = rng.standard_normal(psi.values.shape)
        direction /= np.abs(direction).max()
        bumped = Segment(
            GridPath(psi.path.t0, psi.path.dt, psi.path.values + eps * direction),
            psi.anchor, psi.lookback,
        )
        quot = (
            np.linalg.norm(
                eval_coefficient(spec, "c", t, bumped) - eval_coefficient(spec, "c", t, psi)
            )
            / eps
        )
        if quot > worst2:
            worst2, wit2 = float(quot), f"t={t:.3g}"
    res2 = CheckResult("derivative_bound", worst2 <= k2 * slack + 1e-6, k2, worst2, wit2)

    # local Lipschitz continuity of (a, b) in the segment
    worst3, wit3 = 0.0, ""
    for t, psi in zip(times, segs):
        shift = rng.standard_normal(psi.values.shape)
        shift *= rng.uniform(0.01, 1.0) / max(1.0, np.abs(shift).max())
        other = Segment(
            GridPath(psi.path.t0, psi.path.dt, psi.path.values + shift),
            psi.anchor, psi.lookback,
        )
        dist = float(np.linalg.norm(shift, axis=1).max() if spec.dim > 1 else np.abs(shift).max())
        gap = np.linalg.norm(
            eval_coefficient(spec, "a", t, other) - eval_coefficient(spec, "a", t, psi)
        ) + np.linalg.norm(
            eval_coefficient(spec, "b", t, other) - eval_coefficient(spec, "b", t, psi)
        )
        ratio = float(gap) / dist
        if ratio > worst3:
            worst3, wit3 = ratio, f"||psi1-psi2||={dist:.3g}"
    res3 = CheckResult("local_lipschitz", worst3 <= k3 * slack, k3, worst3, wit3)

    # time-Holder continuity of c
    worst4, wit4 = 0.0, ""
    for psi in segs:
        t1, t2 = rng.uniform(0.0, 1.0, size=2)
        if abs(t1 - t2) < 1e-9:
            continue
        gap = np.linalg.norm(
            eval_coefficient(spec, "c", t1, psi) - eval_coefficient(spec, "c", t2, psi)
        )
        ratio = float(gap) / (abs(t1 - t2) ** beta * (1.0 + psi.sup_norm()))
        if ratio > worst4:
            worst4, wit4 = ratio, f"t1={t1:.3g}, t2={t2:.3g}"
    res4 = CheckResult("time_holder", worst4 <= k4 * slack + 1e-12, k4, worst4, wit4)

    checks = [res1, res2, res3, res4]

    # Holder continuity of the initial condition
    if eta is not None:
        observed = eta.holder_constant()
        claimed5 = claimed.get("K_eta", max(k1, observed))
        checks.append(
            CheckResult(
                "initial_holder",
                observed <= claimed5 * slack,
                claimed5,
                observed,
                f"theta={eta.holder_theta}",
            )
        )

    return AssumptionReport(tuple(checks))


# --------------------------------------------------------------------------
# Oracle of the block stepper: ``solver._solve`` as it was with a
# ``(groups, replicas, d)`` state block and ``(groups, replicas, d * cols)``
# coefficient columns, with the compile step of that layout.  The
# channel-major stepper must give the same paths, signs of zero included.
# ``oracle_front`` stands in for ``solver._front``, the common entry of both
# schemes.


def _block(path: GridPath) -> np.ndarray:
    return path.values if path.replicas is not None else path.values[None]


def _oracle_stack(parts: list):
    """Per-group arrays (None where zero) as ``(stacked, where)``: ``stacked``
    is None if no group has a part; ``where`` marks the groups that have one,
    or is None if all do."""
    have = np.array([part is not None for part in parts])
    if not have.any():
        return None, None
    zero = np.zeros_like(parts[int(have.argmax())])
    stacked = np.stack([zero if part is None else part for part in parts])
    return stacked, None if have.all() else have[:, None, None]


def _oracle_compile(specs: list, cfg: SolverConfig, q: int):
    """The specs of the row groups as arrays for one solver grid and histories
    of q steps: ``(now, delay, const, mods, steps, span)``.

    Each spec gives its columns ``[a | b_1..b_m | c_1..c_l]``
    (:meth:`CoefficientSpec.columns`): in group g,
    ``x @ now[g] + y @ delay[g] + const[g]``, reshaped to
    ``(replicas, d, 1 + m + l)`` and multiplied by ``mods[k]``, holds every
    coefficient at state ``x`` and delay read ``y`` at step k.  The delay read
    is the state ``steps[g]`` steps back, or for the distributed family (``span``
    not None) the trapezoid integral over the last ``span`` steps.  ``delay``
    and ``const`` are ``(stacked, where)`` pairs as :func:`_oracle_stack` gives them:
    a group whose part is zero skips its term, as it does when solved alone.
    The groups must share the dimensions and the time modulation, and those
    with delay gains the kind of delay read and the span of a window.
    """
    dims = {(spec.dim, spec.n_wiener, spec.n_holder) for spec in specs}
    if len(dims) > 1:
        raise GridError("row groups must share the state and driver dimensions")
    nows, delays, consts, sines, steps = [], [], [], [], []
    for spec in specs:
        now, delay, const, sin_cols = spec.columns()
        nows.append(now)
        delays.append(delay if delay.any() else None)
        consts.append(const if const.any() else None)
        sines.append(sin_cols)
        steps.append(_reach_steps(spec, cfg.dt, q))
    sin_cols = sines[0]
    if any(not np.array_equal(s, sin_cols) for s in sines):
        raise GridError("row groups must share the time modulation")
    reads = {(DELAY_READS[spec.family], k)
             for spec, k, delay in zip(specs, steps, delays) if delay is not None}
    if len({read for read, _ in reads}) > 1:
        raise GridError("row groups must share the kind of delay read")
    spans = {k for read, k in reads if read == "window"}
    if len(spans) > 1:
        raise GridError("row groups that read a window must share its span")
    mods = None
    if sin_cols.any():
        sines = np.array([math.sin(k * cfg.dt) for k in range(cfg.n_steps)])
        mods = np.where(sin_cols, sines[:, None], 1.0)
    return (np.stack(nows), _oracle_stack(delays), _oracle_stack(consts), mods, steps,
            min(spans, default=None))


def oracle_solve(specs: list, etas: list, cfg: SolverConfig, w: GridPath, first: float,
                 thirds: list, ito: bool) -> list:
    """Euler steps of a ``(groups, replicas, d)`` state block, for both schemes.

    Row group g solves ``specs[g]`` from history ``etas[g]``; all groups share
    the Wiener increments, and ``thirds`` holds the third increment column
    block, ``(replicas, n, l)``, once for all groups or once per group.  The
    step-k increments ``[first | dW | third]`` multiply the coefficient
    columns.  Mixed scheme: ``[dt | dW | dZ]``, added column by column.  Ito
    scheme: ``[1 | dW | dZ^N/dt]``, with ``a + c dZ^N/dt`` multiplied by dt.
    Every operation reads one row only, in an order fixed by the spec:
    ``x @ now`` and ``y @ delay`` are one-component products added in
    component order, a group skips the terms its spec does not have, and the
    distributed window is a running sum of trapezoid cells.  So a row's path
    depends neither on the block it is solved in nor on the other groups.

    The trust region is checked once the paths are complete, and a NaN node
    is outside it.  The lowest row with a node outside it is named, then the
    first group in which that row has one, then that group's first such step.
    Returns one path per group.
    """
    groups, d, m = len(specs), specs[0].dim, specs[0].n_wiener
    n, dt = cfg.n_steps, cfg.dt
    q = etas[0].steps(dt)
    if any(eta.steps(dt) != q for eta in etas[1:]):
        raise GridError("row groups must share the history length")
    now, (delay, on_delay), (const, on_const), mods, steps, span = _oracle_compile(specs, cfg, q)
    hist = [_history_values(eta, q) for eta in etas]
    for h in hist:
        if h.shape[1] != d:
            raise GridError(f"initial condition dimension {h.shape[1]} != spec dim {d}")
    hist = np.stack(hist)  # (groups, q + 1, d)
    dw = np.diff(_block(w), axis=1)
    reps = dw.shape[0]
    cols = now.shape[-1] // d
    inc = np.empty((n, len(thirds), reps, 1, cols))  # built once, in stepping order
    inc[..., 0] = first
    inc[:, :, :, 0, 1 : 1 + m] = dw.transpose(1, 0, 2)[:, None]
    for g, third in enumerate(thirds):
        inc[:, g, :, 0, 1 + m :] = third.transpose(1, 0, 2)
    buf = np.empty((q + n + 1, groups, reps, d))
    buf[: q + 1] = hist.transpose(1, 0, 2)[:, :, None, :]
    shape = (groups, reps, d * cols)
    v, tmp, f = np.empty(shape), np.empty(shape), np.empty((groups, reps, d))
    p = v.reshape(groups, reps, d, cols)  # a view: the coefficient columns of the step

    def channels(lo: int, hi: int):  # the increment terms of columns lo..hi-1
        view = p[..., lo:hi]
        return (lambda: view[..., 0]) if hi == lo + 1 else (lambda: view.sum(axis=-1))

    window = span is not None
    gather = None  # the taps: step k reads flat row gather[k, g] into y
    reads = [(0, buf, now, None)]  # (steps back, source, gains, where) of the terms
    if window:  # win[k]: the trapezoid integral over the last span steps at step k
        half = 0.5 * dt
        cells, win = np.empty((q + n, groups, reps, d)), np.empty((n + 1, groups, reps, d))
        hist_cells = (hist[:, :-1] + hist[:, 1:]) * half
        cells[:q] = hist_cells.transpose(1, 0, 2)[:, :, None, :]
        win[0] = np.cumsum(hist_cells[:, q - span:], axis=1)[:, -1, None, :]  # in cell order
        reads.append((q, win, delay, on_delay))
    elif delay is not None:
        flat = buf.reshape(-1, reps, d)
        gather = (q + np.arange(n)[:, None] - steps) * groups + np.arange(groups)
        y = np.empty((1, groups, reps, d))
        reads.append((None, y, delay, on_delay))
    terms = [(back, src[..., j : j + 1], gains[:, None, j], where)
             for back, src, gains, where in reads for j in range(d)]
    (_, col0, gains0, _), rest = terms[0], terms[1:]
    a, b_terms, c_terms = p[..., 0], channels(1, 1 + m), channels(1 + m, cols)
    with np.errstate(over="ignore", invalid="ignore"):  # past an explosion
        for k in range(n):
            i = q + k
            x, nxt = buf[i], buf[i + 1]
            if gather is not None:
                np.take(flat, gather[k], axis=0, out=y[0])
            np.multiply(col0[i], gains0, out=v)
            for back, col, gains, where in rest:
                np.multiply(col[0 if back is None else i - back], gains, out=tmp)
                if where is None:
                    v += tmp
                else:
                    np.add(v, tmp, out=v, where=where)
            if const is not None:
                np.add(v, const, out=v, where=True if on_const is None else on_const)
            if mods is not None:
                p *= mods[k]
            p *= inc[k]
            if ito:
                np.add(a, c_terms(), out=f)
                f *= dt
                np.add(x, f, out=nxt)
                nxt += b_terms()
            else:
                np.add(x, a, out=nxt)
                nxt += b_terms()
                nxt += c_terms()
            if window:
                np.add(x, nxt, out=cells[i])
                cells[i] *= half
                np.add(win[k], cells[i], out=win[k + 1])
                win[k + 1] -= cells[i - span]
    mags = np.linalg.norm(buf[q + 1 :], axis=-1)
    over = ~(mags <= cfg.explosion_threshold)
    if over.any():
        row = np.flatnonzero(over.any(axis=(0, 1)))[0]
        g = np.flatnonzero(over[:, :, row].any(axis=0))[0]
        k = np.flatnonzero(over[:, g, row])[0]
        raise SolverExplosionError(
            (k + 1) * dt, float(mags[k, g, row]), cfg.explosion_threshold, int(row), int(g)
        )
    single = w.replicas is None
    return [GridPath(-etas[0].r, dt, buf[:, g, 0] if single else buf[:, g].transpose(1, 0, 2))
            for g in range(groups)]


def oracle_front(spec, eta, W: GridPath, Z, cfg: SolverConfig, level) -> GridPath | tuple:
    """Both schemes from their inputs: the row groups, the drivers checked
    against the solver grid, the third increment column, one
    :func:`oracle_solve`.

    ``level`` None selects the mixed scheme, whose third column is dZ on the
    solver grid.  Otherwise it is the mollifier level of the Ito scheme,
    whose third column is dZ^N/dt at the step times, tabulated from Z on its
    own grid.  A list of ``Z`` or of ``level`` gives each group its own
    column; otherwise the groups share one.
    """
    (specs, etas, zs, levels), grouped = _row_groups(spec, eta, Z, level)
    ito = level is not None
    if ito:
        for lvl in levels:
            if not MollifierParams(lvl).resolves(cfg.dt):
                raise GridError(f"mesh dt={cfg.dt} too coarse for mollifier level {lvl}")
    head = specs[0]
    w = _align_driver(W, cfg, head.n_wiener, "W")
    own = any(isinstance(a, (list, tuple)) for a in (Z, level))
    times = cfg.dt * np.arange(cfg.n_steps)
    thirds = []
    for z, lvl in zip(zs, levels) if own else [(zs[0], levels[0])]:
        aligned = _align_driver(z, cfg, head.n_holder, "Z")
        if w.replicas != z.replicas:
            raise GridError(f"W has {w.replicas} replicas, Z has {z.replicas}")
        # dZ^N/dt is tabulated from Z on its own grid
        third = (oracle_zdot(z, MollifierParams(lvl), times) if ito
                 else np.diff(aligned.values, axis=-2))
        thirds.append(third.reshape(-1, cfg.n_steps, head.n_holder))
    paths = oracle_solve(specs, etas, cfg, w, 1.0 if ito else cfg.dt, thirds, ito)
    return tuple(paths) if grouped else paths[0]


# --------------------------------------------------------------------------
# Oracle of the Riemann-Liouville tail: ``fraccalc._forward_tail`` as it was
# with its two convolutions taken directly by ``np.convolve``, before both
# became one spectral product.  No padding rule, so nothing can wrap.


def oracle_forward_tail(f: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """``alpha * int_a^x (f(x)-f(u)) (x-u)^(-1-alpha) du`` at nodes 1..n.

    Piecewise-linear product integration in units of ``dt``: the cell at lag
    m >= 2 weighs ``f(u)`` through ``p(m)`` and its slope through ``q(m)``;
    the cell adjacent to the singularity reduces to its slope term.
    """
    n = len(f) - 1
    m0, m1 = _power_cells(-1.0 - alpha, n, 1.0)
    lag = np.arange(2.0, n + 1)
    p = np.zeros(n + 1)
    q = np.zeros(n + 1)
    p[2:] = alpha * m0[1:]
    q[2:] = alpha * (m1[1:] - lag * m0[1:])
    delta = np.diff(f)
    p_cum = np.cumsum(p)
    conv_f = np.convolve(f, p)[: n + 1]
    conv_d = np.convolve(delta, q)[: n + 1]
    tail = np.zeros(n + 1)
    tail[1:] = f[1:] * p_cum[1:] - conv_f[1:] + conv_d[1:] + alpha * m1[0] * delta
    return tail * dt ** (-alpha)
