"""Time-stepping engines for mixed and Ito-type delay equations.

``euler_mixed_sdde`` advances the explicit Euler recursion with left-point
coefficient evaluation for both noise terms: the Wiener increment enters in
the Ito sense, the rough-driver increment as a left-point Young sum.  The
raw increment of Z is used directly; the mollified driver Z^N exists only to
re-express the equation as an Ito equation with random drift, which
``euler_ito_sdde`` integrates.

Both schemes run on one stepper.  A :class:`CoefficientSpec` is compiled
once into arrays (gain matrices, constants, the delay tap, the time
modulation), and each step advances a ``(groups, replicas, d)`` state block
with one affine update.  Drivers given as a replica block (a
:class:`GridPath` with values ``(replicas, n, d)``) are solved together; a
single path is a block of one.  Row groups, given as lists of specs,
initial conditions and rough drivers (or mollified drifts), are solved in
the same pass on a shared Wiener block, each group with its own gains,
constants, tap and history.  The mixed step adds ``a dt + b dW + c dZ``;
the mollified Ito step adds ``(a + c dZ^N/dt) dt + b dW``, with dZ^N/dt
tabulated on the step times from driver values at or before each step time.
``euler_ito_sdde`` given other callables runs the general per-step loop.

All solves are pure functions of their inputs: identical arguments give
bit-identical output paths.  Each row's path is independent of its block:
every replica of every group is bit-identical to its solve as a block of
one, in any dimension and for every coefficient family.  An explosion names
the first exploding group, then that group's first node outside the trust
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import DELAY_READS, CoefficientSpec, InitialCondition, Segment, eval_coefficient
from .grid import GridError, GridPath, grid_steps, refinement, same_time

__all__ = [
    "SolverConfig",
    "MollifierParams",
    "SolverExplosionError",
    "AdaptednessError",
    "euler_mixed_sdde",
    "euler_ito_sdde",
    "geometric_closed_form",
    "mollify_driver",
    "GuardedDriver",
    "MollifiedDrift",
    "coefficient_evaluator",
]

SCHEMES = ("euler_mixed", "euler_ito")


class SolverExplosionError(RuntimeError):
    """The discrete path left the configured trust region.

    ``replica`` is the row of the exploding path in its block and ``group``
    its row group; callers that know more (the Monte Carlo harness)
    overwrite ``replica`` with the replica index and set ``level``.
    """

    def __init__(self, time: float, magnitude: float, threshold: float, replica: int = 0,
                 group: int = 0):
        super().__init__(time, magnitude, threshold, replica, group)
        self.time, self.magnitude, self.threshold = time, magnitude, threshold
        self.replica, self.group, self.level = replica, group, None

    def __str__(self) -> str:
        where = "" if self.level is None else f"replica {self.replica}, level {self.level}: "
        return (
            f"{where}solution magnitude {self.magnitude:.3e} exceeded the explosion "
            f"threshold {self.threshold:.3e} at t={self.time:.6g}"
        )


class AdaptednessError(RuntimeError):
    """A random coefficient tried to read driver values from the future."""


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid solve on [0, horizon] with look-back window ``delay``."""

    n_steps: int
    horizon: float
    delay: float = 0.0
    scheme: str = "euler_mixed"
    explosion_threshold: float = 1e8

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.explosion_threshold > 0:  # also refuses NaN
            raise ValueError(
                f"explosion_threshold must be positive, got {self.explosion_threshold}"
            )
        self.delay_steps  # the delay must land on the grid

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def delay_steps(self) -> int:
        return grid_steps(self.delay, self.dt, what="delay")


@dataclass(frozen=True)
class MollifierParams:
    """Level of the moving-average smoothing of the rough driver.

    The level N sets both the window width 1/N and the norm clamp applied to
    the driver values; the clamped window average is Lipschitz with constant
    at most 2 N^2.
    """

    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"mollifier level must be a positive integer, got {self.level}")

    @property
    def window(self) -> float:
        return 1.0 / self.level


def _align_driver(path: GridPath, cfg: SolverConfig, dim: int, name: str) -> GridPath:
    if not same_time(path.t0, 0.0):
        raise GridError(f"{name} must start at time 0, starts at {path.t0}")
    if path.dim != dim:
        raise GridError(f"{name} has dimension {path.dim}, expected {dim}")
    if not same_time(path.end_time, cfg.horizon):
        raise GridError(
            f"{name} covers [0, {path.end_time}], expected [0, {cfg.horizon}]"
        )
    step = refinement(cfg.dt, path.dt, f"{name} grid")
    return path if step == 1 else path.restrict(step)


def _history_values(eta: InitialCondition, cfg: SolverConfig) -> np.ndarray:
    q = cfg.delay_steps
    if q == 0:
        return eta.eta.values[-1:].copy()
    path = eta.eta
    if not same_time(path.t0, -cfg.delay):
        raise GridError(
            f"initial condition covers [{path.t0}, 0], solver needs [-{cfg.delay}, 0]"
        )
    ratio = refinement(cfg.dt, path.dt, "initial condition grid")
    path = path if ratio == 1 else path.restrict(ratio)
    if path.n_points != q + 1:
        raise GridError("initial condition grid does not match the solver grid")
    return path.values.copy()


def _tap_steps(spec: CoefficientSpec, cfg: SolverConfig) -> int | None:
    """The steps back of the spec's delay read on the solver grid: 0 for a
    family without one, None for the distributed window."""
    read = DELAY_READS[spec.family]
    if read == "window" and cfg.delay_steps == 0:
        raise GridError("distributed_delay needs a non-trivial segment window")
    if read != "tap":
        return None if read == "window" else 0
    q_tau = grid_steps(spec.tau, cfg.dt, what="tap")
    if q_tau > cfg.delay_steps:
        raise GridError(
            f"tap {spec.tau} exceeds the delay horizon {cfg.delay} of the solve"
        )
    return q_tau


def _stack(parts: list):
    """Per-group arrays (None where zero) as ``(stacked, where)``: ``stacked``
    is None if no group has a part; ``where`` marks the groups that have one,
    or is None if all do."""
    have = np.array([part is not None for part in parts])
    if not have.any():
        return None, None
    zero = np.zeros_like(parts[int(have.argmax())])
    stacked = np.stack([zero if part is None else part for part in parts])
    return stacked, None if have.all() else have[:, None, None]


def _compile(specs: list, cfg: SolverConfig):
    """The specs of the row groups as arrays for one solver grid:
    ``(now, delay, const, mods, taps)``.

    Columns are ``[a | b_1..b_m | c_1..c_l]``: in group g,
    ``x @ now[g] + y @ delay[g] + const[g]``, reshaped to
    ``(replicas, d, 1 + m + l)`` and multiplied by ``mods[k]``, holds every
    coefficient at state ``x`` and delay read ``y`` at step k.  The delay read
    is the state ``taps[g]`` steps back, or for the distributed family
    (``taps`` None) the trapezoid integral over the segment window.  ``delay``
    and ``const`` are ``(stacked, where)`` pairs as :func:`_stack` gives them:
    a group whose part is zero skips its term, as it does when solved alone.
    The groups must share the dimensions, the time modulation and the kind of
    delay read.
    """
    head = specs[0]
    d, cols = head.dim, 1 + head.n_wiener + head.n_holder
    nows, delays, consts, sines, taps = [], [], [], [], []
    for spec in specs:
        if (spec.dim, spec.n_wiener, spec.n_holder) != (d, head.n_wiener, head.n_holder):
            raise GridError("row groups must share the state and driver dimensions")
        blocks = (spec.drift, spec.diffusion, spec.zdrive)

        def matrix(name: str) -> np.ndarray:  # (cols, d, d) gains -> (d, d * cols)
            gains = np.concatenate([getattr(b, name) for b in blocks])
            return gains.transpose(2, 1, 0).reshape(d, d * cols)

        delay = matrix("gain_delay")
        const = np.concatenate([b.const for b in blocks]).T.reshape(1, d * cols)
        nows.append(matrix("gain_now"))
        delays.append(delay if delay.any() else None)
        consts.append(const if const.any() else None)
        sines.append(np.concatenate([np.full(b.channels, b.time_modulation == "sin")
                                     for b in blocks]))
        taps.append(_tap_steps(spec, cfg))
    sin_cols = sines[0]
    if any(not np.array_equal(s, sin_cols) for s in sines):
        raise GridError("row groups must share the time modulation")
    read = {tap is None for tap, delay in zip(taps, delays) if delay is not None}
    if len(read) > 1:
        raise GridError("row groups must share the kind of delay read")
    mods = None
    if sin_cols.any():
        sines = np.array([math.sin(k * cfg.dt) for k in range(cfg.n_steps)])
        mods = np.where(sin_cols, sines[:, None], 1.0)
    window = read == {True}
    return (np.stack(nows), _stack(delays), _stack(consts), mods,
            None if window else [tap or 0 for tap in taps])


def _block(path: GridPath) -> np.ndarray:
    return path.values if path.replicas is not None else path.values[None]


def _row_groups(*args):
    """Per-group argument lists: a list or tuple gives one entry per row
    group, a single value serves every group.  Also whether any was a list."""
    sizes = {len(a) for a in args if isinstance(a, (list, tuple))}
    if len(sizes) > 1 or 0 in sizes:
        raise GridError(f"row groups of different sizes {sorted(sizes)}")
    n = max(sizes, default=1)
    return [a if isinstance(a, (list, tuple)) else [a] * n for a in args], bool(sizes)


def _solve(specs: list, etas: list, cfg: SolverConfig, w: GridPath, first: float,
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

    The trust region is checked once the paths are complete.  The first group
    with a node outside it is named, and in it the first such node (earliest
    step, then lowest row): where a step-by-step check of the groups solved
    one after the other would have stopped.  Returns one path per group.
    """
    groups, d, m = len(specs), specs[0].dim, specs[0].n_wiener
    now, (delay, on_delay), (const, on_const), mods, taps = _compile(specs, cfg)
    n, q, dt = cfg.n_steps, cfg.delay_steps, cfg.dt
    hist = [_history_values(eta, cfg) for eta in etas]
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

    window = delay is not None and taps is None
    gather = None  # the taps: step k reads flat row gather[k, g] into y
    reads = [(0, buf, now, None)]  # (steps back, source, gains, where) of the terms
    if window:  # win[k]: the trapezoid integral over the segment at step k
        half = 0.5 * dt
        cells, win = np.empty((q + n, groups, reps, d)), np.empty((n + 1, groups, reps, d))
        hist_cells = (hist[:, :-1] + hist[:, 1:]) * half
        cells[:q] = hist_cells.transpose(1, 0, 2)[:, :, None, :]
        win[0] = np.cumsum(hist_cells, axis=1)[:, -1, None, :]  # in cell order
        reads.append((q, win, delay, on_delay))
    elif delay is not None:
        flat = buf.reshape(-1, reps, d)
        gather = (q + np.arange(n)[:, None] - taps) * groups + np.arange(groups)
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
                win[k + 1] -= cells[k]
    mags = np.linalg.norm(buf[q + 1 :], axis=-1)
    over = ~(mags <= cfg.explosion_threshold)
    if over.any():
        g = int(over.any(axis=(0, 2)).argmax())
        k, row = np.argwhere(over[:, g])[0]
        if mags[k, g, row] > cfg.explosion_threshold:  # else non-finite: GridPath rejects it
            raise SolverExplosionError(
                (k + 1) * dt, float(mags[k, g, row]), cfg.explosion_threshold, int(row), g
            )
    single = w.replicas is None
    return [GridPath(-cfg.delay, dt, buf[:, g, 0] if single else buf[:, g].transpose(1, 0, 2))
            for g in range(groups)]


def euler_mixed_sdde(
    spec: CoefficientSpec,
    eta: InitialCondition,
    W: GridPath,
    Z: GridPath,
    cfg: SolverConfig,
) -> GridPath | tuple[GridPath, ...]:
    """Explicit Euler path of the mixed delay equation on [-delay, horizon].

    On [-delay, 0] the output equals the initial condition bitwise.  Each step
    advances ``X += a dt + b dW + c dZ`` with all three coefficients frozen at
    the left node and the segment of the discrete solution there.  ``W`` and
    ``Z`` may be replica blocks of one size; the output is then a block too.

    Row groups: ``spec``, ``eta`` and ``Z`` may each be a list, one entry per
    group (a single value serves every group).  All groups are solved in one
    pass on the shared ``W``, and a tuple of paths comes back, one per group,
    each bit-identical to its group solved alone.  The specs must share the
    dimensions, the time modulation and the kind of delay read.
    """
    (specs, etas, zs), grouped = _row_groups(spec, eta, Z)
    w = _align_driver(W, cfg, specs[0].n_wiener, "W")
    thirds = []
    for z in (zs if isinstance(Z, (list, tuple)) else [Z]):
        z = _align_driver(z, cfg, specs[0].n_holder, "Z")
        if w.replicas != z.replicas:
            raise GridError(f"W has {w.replicas} replicas, Z has {z.replicas}")
        thirds.append(np.diff(_block(z), axis=1))
    paths = _solve(specs, etas, cfg, w, cfg.dt, thirds, False)
    return tuple(paths) if grouped else paths[0]


@dataclass(frozen=True, eq=False)
class _Coefficient:
    """One coefficient of a spec as a ``(t, psi) -> array`` callable."""

    spec: CoefficientSpec
    which: str

    def __call__(self, t: float, psi):
        return eval_coefficient(self.spec, self.which, t, psi)


def coefficient_evaluator(spec: CoefficientSpec, which: str):
    """Bind one coefficient of a spec as a plain ``(t, psi) -> array`` callable."""
    return _Coefficient(spec, which)


def euler_ito_sdde(
    drift,
    diffusion,
    theta: InitialCondition,
    W: GridPath,
    cfg: SolverConfig,
    guarded: tuple = (),
) -> GridPath | tuple[GridPath, ...]:
    """Euler-Maruyama path of an Ito delay equation with (possibly random)
    coefficients ``drift(t, psi)`` and ``diffusion(t, psi)``.

    Random coefficients must be adapted: any :class:`GuardedDriver` listed in
    ``guarded`` is advanced to the current step time before evaluation, so an
    evaluator that asks for future driver values raises
    :class:`AdaptednessError`.

    A :class:`MollifiedDrift` with the ``coefficient_evaluator(spec, "b")``
    of its own spec is solved by the compiled stepper (``W`` and the drift's
    driver may then be replica blocks of one size); it reads the driver only
    at nodes at or before each step time, so no guard is needed.  There,
    ``drift`` and ``theta`` may each be a list, one entry per row group, as
    in :func:`euler_mixed_sdde`: mollified drifts of that spec at any levels,
    solved in one pass, with a tuple of paths returned.
    """
    (drifts, thetas), grouped = _row_groups(drift, theta)
    if (
        all(isinstance(f, MollifiedDrift) for f in drifts)
        and isinstance(diffusion, _Coefficient)
        and diffusion.which == "b"
        and all(f.spec is diffusion.spec for f in drifts)
    ):
        spec = diffusion.spec
        w = _align_driver(W, cfg, spec.n_wiener, "W")
        thirds = []
        for f in drifts:
            if w.replicas != f.driver.replicas:
                raise GridError(f"W has {w.replicas} replicas, Z has {f.driver.replicas}")
            if f.driver.dim != spec.n_holder:
                raise GridError(f"Z has dimension {f.driver.dim}, expected {spec.n_holder}")
            zdot = f.zdot_table(cfg.dt * np.arange(cfg.n_steps))
            thirds.append(zdot[None] if w.replicas is None else zdot)
        paths = _solve([spec] * len(drifts), thetas, cfg, w, 1.0, thirds, True)
        return tuple(paths) if grouped else paths[0]
    if grouped:
        raise GridError("row groups need MollifiedDrifts and their spec's diffusion")
    n, q, dt = cfg.n_steps, cfg.delay_steps, cfg.dt
    hist = _history_values(theta, cfg)
    dim = hist.shape[1]
    w = _align_driver(W, cfg, W.dim, "W")
    if w.replicas is not None:
        raise GridError("replica blocks need a MollifiedDrift and its spec's diffusion")
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
    return GridPath(-cfg.delay, dt, buf)


def geometric_closed_form(
    a: float, b: float, c: float, x0: float, W: GridPath, Z: GridPath
) -> GridPath:
    """Pathwise solution of the scalar linear mixed equation.

    The Wiener integral is an Ito integral (hence the -b^2/2 correction); the
    rough integral obeys the pathwise chain rule with no correction:
    ``X(t) = x0 exp((a - b^2/2) t + b W(t) + c Z(t))``.  Replica blocks give
    a block.
    """
    if not W.same_grid(Z):
        raise GridError("W and Z must live on a common grid")
    t = W.times
    vals = x0 * np.exp((a - 0.5 * b * b) * t + b * W.scalar_values() + c * Z.scalar_values())
    return GridPath(W.t0, W.dt, vals[..., None])


def _clamp(values: np.ndarray, level: float) -> np.ndarray:
    mags = np.linalg.norm(values, axis=-1, keepdims=True)
    return values * (level / np.maximum(mags, level))


def _interpolate(path: GridPath, s):
    """Linear interpolation of ``path`` at the time(s) ``s``, clamped to its
    grid.  A time within rounding of a node reads that node alone, so a read
    at a node time never touches a later node."""
    s = np.clip(s, path.t0, path.end_time)
    pos = (s - path.t0) / path.dt
    node = np.rint(pos)
    pos = np.where(np.abs(pos - node) <= 1e-9 * np.maximum(pos, 1.0), node, pos)
    j = np.minimum(pos.astype(int), path.n_points - 2)
    theta = (pos - j)[..., None]
    vals = path.values
    return vals[..., j, :] + theta * (vals[..., j + 1, :] - vals[..., j, :])


def mollify_driver(Z: GridPath, level: int) -> GridPath:
    """Moving window average of the norm-clamped driver.

    ``Z^N(t) = N * integral over [max(t - 1/N, 0), t] of clamp_N(Z(s)) ds``
    on the grid of Z, with the window boundary handled by an exact fractional
    first cell.  The output is absolutely continuous (Lipschitz) and
    converges to Z uniformly as the level grows.
    """
    params = MollifierParams(level)
    if not same_time(Z.t0, 0.0):
        raise GridError("driver must start at time 0")
    if Z.dt > params.window / 4.0:
        raise GridError(
            f"grid step {Z.dt} too coarse for mollifier level {level}: "
            f"need dt <= {params.window / 4.0}"
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
    out[inside] = cum[k[inside]]
    if np.any(~inside):
        kk = k[~inside]
        j0 = np.floor(s0[~inside] / dt).astype(int)
        theta = s0[~inside] / dt - j0
        h_s0 = h[j0] + theta[:, None] * (h[j0 + 1] - h[j0])
        partial = 0.5 * (h_s0 + h[j0 + 1]) * ((j0 + 1) * dt - s0[~inside])[:, None]
        out[~inside] = partial + cum[kk] - cum[j0 + 1]
    return GridPath(0.0, dt, float(level) * out)


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


class MollifiedDrift:
    """Random drift ``f(t, psi) = a(t, psi) + c(t, psi) @ dZ^N/dt (t)``.

    This is the coefficient that turns the mixed equation into an Ito delay
    equation: the derivative of the mollified driver is
    ``N (clamp_N Z(t) - clamp_N Z(max(t - 1/N, 0)))``.
    """

    def __init__(self, spec: CoefficientSpec, Z: GridPath, level: int):
        self.spec = spec
        self.level = MollifierParams(level)
        self.driver = Z
        self.guard = GuardedDriver(Z)

    def _derivative(self, now: np.ndarray, past: np.ndarray) -> np.ndarray:
        lvl = float(self.level.level)
        return lvl * (_clamp(now, lvl) - _clamp(past, lvl))

    def zdot(self, t: float) -> np.ndarray:
        now = self.guard.value(t)
        past = self.guard.value(max(t - self.level.window, 0.0))
        return self._derivative(now, past)

    def zdot_table(self, times: np.ndarray) -> np.ndarray:
        """``zdot`` at every time in ``times`` at once: (len(times), l), or
        (replicas, len(times), l) for a replica block.  The entry at time t
        reads the driver at nodes at or before t only."""
        past = np.maximum(times - self.level.window, 0.0)
        return self._derivative(
            _interpolate(self.driver, times), _interpolate(self.driver, past)
        )

    def __call__(self, t: float, psi) -> np.ndarray:
        a = eval_coefficient(self.spec, "a", t, psi)
        c = eval_coefficient(self.spec, "c", t, psi)
        return a + (c * self.zdot(t)).sum(axis=-1)
