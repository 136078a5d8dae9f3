"""Time-stepping engines for mixed and Ito-type delay equations.

``euler_mixed_sdde`` advances the explicit Euler recursion with left-point
coefficient evaluation for both noise terms: the Wiener increment enters in
the Ito sense, the rough-driver increment as a left-point Young sum.  The
raw increment of Z is used directly; the mollified driver Z^N exists only to
re-express the equation as an Ito equation with random drift, which
``euler_ito_sdde`` integrates.  Its dZ^N/dt is :meth:`MollifiedDrift.zdot`,
and :func:`mollify_driver` integrates the same interpolant into Z^N.

Both schemes take the same inputs (the Ito scheme also the mollifier level)
and run on one stepper.  :class:`SolverConfig` holds only the grid and the
trust region: the look-back window [-r, 0] is the span of the initial
condition, and the scheme is the entry point called.  A
:class:`CoefficientSpec` is compiled once into arrays (gain matrices,
constants, the delay tap or window span, the time modulation), and each step
advances a channel-major ``(d, groups, replicas)`` state block with one affine
update; the returned paths are read-only views of one buffer.  The step
increments are tabulated ``_STEPS`` steps at a time, from the driver nodes
(the Ito scheme's dZ^N/dt from :meth:`MollifiedDrift.zdot` at those steps'
times), as the loop reaches them.  Drivers given as a replica block (a
:class:`GridPath` with values ``(replicas, n, d)``) are solved together; a
single path is a block of one.
Row groups, given as lists of specs, initial conditions, rough drivers or
mollifier levels, are solved in the same pass on a shared Wiener block, each
group with its own gains, constants, delay read and history (all histories of
one length).  The mixed step adds ``a dt + b dW + c dZ``; the mollified Ito
step adds ``(a + c dZ^N/dt) dt + b dW``, with dZ^N/dt read at the step
times from driver values at or before each step time.

All solves are pure functions of their inputs: identical arguments give
bit-identical output paths.  Each row's path is independent of its block:
every replica of every group is bit-identical to its solve as a block of
one, in any dimension and for every coefficient family.  An explosion names
the lowest exploding row, then that row's first exploding group, then that
group's first node outside the trust region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DELAY_READS, REACH, CoefficientSpec, InitialCondition, eval_coefficient
from .fraccalc import _mags
from .grid import FieldError, GridError, GridPath, grid_steps, refinement, same_time

__all__ = [
    "SolverConfig",
    "MollifierParams",
    "SolverExplosionError",
    "euler_mixed_sdde",
    "euler_ito_sdde",
    "geometric_closed_form",
    "mollify_driver",
    "MollifiedDrift",
]

SCHEMES = ("euler_mixed", "euler_ito")
_SLICE = 1 << 13  # values per slice of the trust-region check
_STEPS = 256  # steps per fill of the increment table


class SolverExplosionError(RuntimeError):
    """The discrete path left the configured trust region.

    ``replica`` is the lowest exploding row of its block and ``group`` that
    row's first exploding row group; callers that know more (the Monte Carlo
    harness) overwrite ``replica`` with the replica index and set ``level``.
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


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid solve on [0, horizon]; the look-back window [-r, 0] is
    the history's, and the scheme is the entry point's."""

    n_steps: int
    horizon: float
    explosion_threshold: float = 1e8

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise FieldError("n_steps must be positive", "n_steps")
        if not self.horizon > 0:
            raise FieldError("horizon must be positive", "horizon")
        if not self.explosion_threshold > 0:  # also refuses NaN
            raise FieldError(
                f"explosion_threshold must be positive, got {self.explosion_threshold}",
                "explosion_threshold",
            )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


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
            raise FieldError(f"mollifier level must be a positive integer, got {self.level}",
                             "level")

    @property
    def window(self) -> float:
        return 1.0 / self.level

    @property
    def max_dt(self) -> float:
        """The coarsest grid step the window average resolves: a quarter window."""
        return self.window / 4.0

    def resolves(self, dt: float) -> bool:
        return dt <= self.max_dt


def _align_driver(path: GridPath, cfg: SolverConfig, dim: int, name: str) -> GridPath:
    """``path`` on the solver grid: it must start at 0, cover the horizon, have
    ``dim`` components and a grid that refines the solver step."""
    if not same_time(path.t0, 0.0):
        raise GridError(f"{name} must start at time 0, starts at {path.t0}")
    if path.dim != dim:
        raise GridError(f"{name} has dimension {path.dim}, expected {dim}")
    if not same_time(path.end_time, cfg.horizon):
        raise GridError(
            f"{name} covers [0, {path.end_time}], expected [0, {cfg.horizon}]"
        )
    step = refinement(cfg.dt, path.dt, f"{name} grid")
    return path.restrict(step)


def _history_values(eta: InitialCondition, q: int) -> np.ndarray:
    """The history read on a solver grid of q steps over [-r, 0], ``(q + 1, d)``:
    its linear interpolant, with solver node i at ``i * N / q`` history steps
    (N the history's steps), so every history node that lands on the grid
    keeps its value."""
    path = eta.eta
    if not q:
        return path.values[-1:].copy()
    n = path.n_points - 1
    j, k = np.divmod(np.arange(q + 1) * n, q)
    lo, hi = path.values[j], path.values[np.minimum(j + 1, n)]
    return np.where((k == 0)[:, None], lo, lo + (k / q)[:, None] * (hi - lo))


def _reach_steps(spec: CoefficientSpec, dt: float, q: int) -> int:
    """The steps back of the spec's delay read (:attr:`CoefficientSpec.reach`)
    on a grid of step ``dt``, within a history of q steps; a window spans one
    step at least."""
    read = DELAY_READS[spec.family]
    field = REACH.get(read)
    steps = grid_steps(spec.reach, dt, what=read, field=field)
    if steps > q:
        raise GridError(f"{read} {spec.reach} exceeds the history length {q * dt:g}", field)
    if read == "window" and steps == 0:
        raise GridError(f"window {spec.reach} is shorter than the step {dt}", field)
    return steps


def _stack(parts: list):
    """Per-group arrays (None where zero) as ``(stacked, runs)``: ``stacked``
    is None if no group has a part, else the parts as ``(rows, d * cols,
    groups, 1)``; ``runs`` are the slices of consecutive groups that have one."""
    have = [part is not None for part in parts]
    if not any(have):
        return None, []
    zero, edges = np.zeros_like(parts[have.index(True)]), np.flatnonzero(np.diff([0, *have, 0]))
    stacked = np.stack([zero if part is None else part for part in parts], axis=-1)[..., None]
    return stacked, [slice(lo, hi) for lo, hi in zip(edges[::2], edges[1::2])]


def _compile(specs: list, cfg: SolverConfig, q: int):
    """The specs of the row groups as arrays for one solver grid and histories
    of q steps: ``(now, delay, const, mods, steps, span)``.

    Each spec gives its columns ``[a | b_1..b_m | c_1..c_l]``
    (:meth:`CoefficientSpec.columns`), channel-major: in group g, the sum over
    the components j of ``x_j now[j, :, g]`` and ``y_j delay[j, :, g]``, plus
    ``const[0, :, g]``, laid out as ``(d, 1 + m + l)`` and multiplied by
    ``mods[k]``, holds every coefficient at state ``x`` and delay read ``y``
    at step k.  The delay read is the state ``steps[g]`` steps back, or for
    the distributed family (``span`` not None) the trapezoid integral over the
    last ``span`` steps.  ``delay`` and ``const`` are ``(stacked, runs)`` pairs
    as :func:`_stack` gives them: a group whose part is zero skips its term,
    as it does when solved alone.  The groups must share the dimensions and
    the time modulation, and those with delay gains the kind of delay read and
    the span of a window.
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
        mods = np.where(sin_cols[:, None, None], sines[:, None, None, None], 1.0)
    return _stack(nows)[0], _stack(delays), _stack(consts), mods, steps, min(spans, default=None)


def _row_groups(*args):
    """Per-group argument lists: a list or tuple gives one entry per row
    group, a single value serves every group.  Also whether any was a list."""
    sizes = {len(a) for a in args if isinstance(a, (list, tuple))}
    if len(sizes) > 1 or 0 in sizes:
        raise GridError(f"row groups of different sizes {sorted(sizes)}")
    n = max(sizes, default=1)
    return [a if isinstance(a, (list, tuple)) else [a] * n for a in args], bool(sizes)


def _step_major(values: np.ndarray) -> np.ndarray:
    """The values ``(..., k, l)`` of a path or a replica block as a view ``(k, l, replicas)``."""
    return values.reshape(-1, *values.shape[-2:]).transpose(1, 2, 0)


def _solve(specs: list, etas: list, cfg: SolverConfig, w: GridPath, thirds: list,
           ito: bool) -> list:
    """Euler steps of a ``(d, groups, replicas)`` state block, for both schemes.

    Row group g solves ``specs[g]`` from history ``etas[g]`` on the shared
    Wiener increments; ``thirds`` holds the source of the third column, once
    or per group: the nodes of Z step-major, ``(n + 1, l, replicas)`` (mixed
    scheme, whose dZ are their differences), or the ``zdot`` of a
    :class:`MollifiedDrift` (Ito scheme).  The increments ``[dt | dW | dZ]``
    or ``[1 | dW | dZ^N/dt]`` multiply the coefficient columns.  Their table
    holds ``_STEPS`` steps and is filled again each time the loop reaches its
    end, dW and dZ taken there as differences of the driver nodes and
    dZ^N/dt as ``zdot`` at those steps' times.  The mixed step
    adds ``((x + a dt) + b dW) + c dZ``, the Ito step ``((a + c dZ^N/dt) dt +
    x) + b dW``, with channels summed as numpy's contiguous reduce sums them.
    Every operation runs along the replica axis of one buffer ``(q + n + 1, d,
    groups, replicas)``, a column block ``(d * cols, groups, replicas)`` and
    increments ``(_STEPS, 1, cols, thirds, replicas)``, and reads one row only,
    in an order fixed by the spec (products added in component order, terms a
    group lacks skipped, the window a running sum of trapezoid cells): a
    row's path depends neither on its block, nor on the other groups, nor on
    the steps per fill.

    Once the paths are complete, :func:`_trust_region` checks them.  Returns
    one path per group, read-only views of the buffer.
    """
    groups, d, m, n, dt = len(specs), specs[0].dim, specs[0].n_wiener, cfg.n_steps, cfg.dt
    q = etas[0].steps(dt)
    if any(eta.steps(dt) != q for eta in etas[1:]):
        raise GridError("row groups must share the history length")
    now, (delay, delay_runs), (const, const_runs), mods, steps, span = _compile(specs, cfg, q)
    hist = [_history_values(eta, q) for eta in etas]
    for h in hist:
        if h.shape[1] != d:
            raise GridError(f"initial condition dimension {h.shape[1]} != spec dim {d}")
    wiener = _step_major(w.values)[:, :, None]  # (n + 1, m, 1, reps)
    reps, cols = wiener.shape[-1], now.shape[1] // d
    inc = np.empty((min(n, _STEPS), 1, cols, len(thirds), reps))  # steps k0..k1-1
    inc[:, 0, 0] = 1.0 if ito else dt

    def fill(k0: int, k1: int) -> np.ndarray:
        table = inc[: k1 - k0, 0]
        np.subtract(wiener[k0 + 1 : k1 + 1], wiener[k0:k1], table[:, 1 : 1 + m])
        for g, third in enumerate(thirds):
            if ito:
                table[:, 1 + m :, g] = _step_major(third(dt * np.arange(k0, k1)))
            else:
                np.subtract(third[k0 + 1 : k1 + 1], third[k0:k1], table[:, 1 + m :, g])
        return inc[: k1 - k0]

    buf = np.empty((q + n + 1, d, groups, reps))
    buf[: q + 1] = np.stack(hist, axis=-1)[..., None]
    row = buf.shape[1:]
    v, tmp = np.empty((d * cols, groups, reps)), np.empty((d * cols, groups, reps))
    p = v.reshape(d, cols, groups, reps)  # a view: the coefficient columns of the step

    def channels(lo: int, hi: int):  # columns lo..hi-1: their sum, None or (view, copy, sum)
        view, total = p[:, lo:hi], np.empty(row)
        if hi == lo + 1:
            return view[:, 0], None
        return total, (np.moveaxis(view, 1, -1), np.empty(row + (hi - lo,)), total)

    gather = None  # the taps: step k reads flat rows gather[k] into y
    reads = [(None, now, [slice(None)])]  # (fixed source or None for x, gains, runs) of the terms
    if span is not None:  # win: the trapezoid integral over the last span steps, from a ring
        half, win, ring = 0.5 * dt, np.full(row, -0.0), np.empty((span + 1,) + row)

        def cell(j: int) -> np.ndarray:  # (x_j + x_{j+1}) dt / 2, in its slot of the ring
            out = ring[j % (span + 1)]
            return np.multiply(np.add(buf[j], buf[j + 1], out), half, out)

        for j in range(q - span, q):  # the history's cells, in cell order
            np.add(win, cell(j), win)
        reads.append((win, delay, delay_runs))
    elif delay is not None:
        flat, y = buf.reshape(-1, reps), np.empty(row)
        taps = (q + np.arange(n)[:, None, None] - np.array(steps)) * d + np.arange(d)[:, None]
        gather, into = (taps * groups + np.arange(groups)).reshape(n, -1), y.reshape(-1, reps)
        reads.append((y, delay, delay_runs))
    terms = [(j, run, None if src is None else src[j, run], gains[j][:, run], v[:, run],
              tmp[:, run]) for src, gains, runs in reads for j in range(d) for run in runs]
    gains0, rest = terms[0][3], terms[1:]
    consts = [(v[:, run], const[0][:, run]) for run in const_runs]
    (b, sum_b), (c, sum_c) = channels(1, 1 + m), channels(1 + m, cols)
    a, sums = p[:, 0], [add_up for add_up in (sum_b, sum_c) if add_up is not None]
    add, multiply = np.add, np.multiply  # outputs passed positionally: no keyword parsing per call
    with np.errstate(over="ignore", invalid="ignore"):  # past an explosion
        for k0 in range(0, n, _STEPS):
            k1 = min(k0 + _STEPS, n)
            for k, x, nxt, x0, step in zip(range(k0, k1), buf[q + k0 :], buf[q + k0 + 1 :],
                                           buf[q + k0 :, 0], fill(k0, k1)):
                if gather is not None:
                    np.take(flat, gather[k], 0, into)
                multiply(x0, gains0, v)
                for j, run, src, gains, out, scratch in rest:
                    multiply(x[j, run] if src is None else src, gains, scratch)
                    add(out, scratch, out)
                for out, term in consts:
                    add(out, term, out)
                if mods is not None:
                    multiply(p, mods[k], p)
                multiply(p, step, p)
                for chans, last, total in sums:  # contiguous: in order below 8, pairwise from 8 on
                    np.copyto(last, chans)
                    np.add.reduce(last, -1, None, total)
                if ito:  # nxt holds (a + c) dt before x is added to it
                    multiply(add(a, c, nxt), dt, nxt)
                    add(add(x, nxt, nxt), b, nxt)
                else:
                    add(add(add(x, a, nxt), b, nxt), c, nxt)
                if span is not None:
                    add(win, cell(q + k), win)
                    np.subtract(win, ring[(q + k - span) % (span + 1)], win)
    _trust_region(buf[q + 1 :], dt, cfg.explosion_threshold)
    buf.flags.writeable = False
    return [GridPath(-etas[0].r, dt, path if w.replicas else path[0])
            for path in buf.transpose(2, 3, 0, 1)]  # (replicas, n, d) per group


def _trust_region(nodes: np.ndarray, dt: float, threshold: float, first: int = 1) -> None:
    """Check ``nodes``, the states ``(steps, d, groups, replicas)`` at steps
    ``first``, ``first + 1``, ..., against the trust region a slice of steps at
    a time; a NaN or infinite node is outside it, whatever the threshold.  The
    lowest row with a node outside it is named, then that row's first group
    with one, then that group's first such step."""
    groups, limit = nodes.shape[2], min(threshold, np.finfo(float).max)
    hit, size = (nodes.shape[3],), max(1, _SLICE // nodes[0].size)  # (row, group, step, mag)
    for lo in range(0, len(nodes), size):  # node-major slices, as norm(axis=-1) reads them
        mags = _mags(np.ascontiguousarray(np.moveaxis(nodes[lo : lo + size], 1, -1)))
        over = ~(mags <= limit)
        r, g = divmod(int(over.any(axis=0).T.argmax()), groups)  # lowest row, its first group
        if over[:, g, r].any() and (r, g) < hit[:2]:  # a later slice names a lower pair only
            k = int(over[:, g, r].argmax())
            hit = r, g, first + lo + k, float(mags[k, g, r])
    if len(hit) > 1:
        raise SolverExplosionError(hit[2] * dt, hit[3], threshold, hit[0], hit[1])


def _front(spec, eta, W: GridPath, Z, cfg: SolverConfig, level) -> GridPath | tuple:
    """Both schemes from their inputs: the row groups, the drivers checked
    against the solver grid, the third increment column, one :func:`_solve`.

    ``level`` None selects the mixed scheme, whose third column is dZ on the
    solver grid, taken from the nodes of Z there.  Otherwise it is the
    mollifier level of the Ito scheme, whose third column is dZ^N/dt at the
    step times: :meth:`MollifiedDrift.zdot` of Z on its own grid, which
    :func:`_solve` reads a chunk of steps at a time.  A list of ``Z`` or of
    ``level`` gives each group its own column; otherwise the groups share one.
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
    thirds = []
    for z, lvl in zip(zs, levels) if own else [(zs[0], levels[0])]:
        aligned = _align_driver(z, cfg, head.n_holder, "Z")
        if w.replicas != z.replicas:
            raise GridError(f"W has {w.replicas} replicas, Z has {z.replicas}")
        # dZ^N/dt is read from Z on its own grid
        thirds.append(MollifiedDrift(head, z, lvl).zdot if ito else _step_major(aligned.values))
    paths = _solve(specs, etas, cfg, w, thirds, ito)
    return tuple(paths) if grouped else paths[0]


def euler_mixed_sdde(
    spec: CoefficientSpec,
    eta: InitialCondition,
    W: GridPath,
    Z: GridPath,
    cfg: SolverConfig,
) -> GridPath | tuple[GridPath, ...]:
    """Explicit Euler path of the mixed delay equation on [-r, horizon],
    with r the length of the history ``eta``.

    On [-r, 0] the output is the linear interpolant of the initial condition
    (:func:`_history_values`).  Each step advances ``X += a dt + b dW + c dZ``
    with all three coefficients frozen at the left node and the segment of
    the discrete solution there.  ``W`` and ``Z`` must cover [0, horizon] on
    grids that refine the solver grid, and may be replica blocks of one size;
    the output is then a block too.

    Row groups: ``spec``, ``eta`` and ``Z`` may each be a list, one entry per
    group (a single value serves every group).  All groups are solved in one
    pass on the shared ``W``, and a tuple of paths comes back, one per group,
    each bit-identical to its group solved alone.  The specs must share the
    dimensions and the time modulation, those with delay gains the kind of
    delay read and a window's span, and the histories their length r.
    """
    return _front(spec, eta, W, Z, cfg, None)


def euler_ito_sdde(
    spec: CoefficientSpec,
    eta: InitialCondition,
    W: GridPath,
    Z: GridPath,
    cfg: SolverConfig,
    level: int,
) -> GridPath | tuple[GridPath, ...]:
    """Euler-Maruyama path of the mollified Ito delay equation on
    [-r, horizon]: the mixed equation with ``c dZ`` replaced by the random
    drift ``c dZ^N/dt dt`` of :class:`MollifiedDrift`.

    Each step advances ``X += (a + c dZ^N/dt) dt + b dW`` with the
    coefficients frozen at the left node; dZ^N/dt at a step time reads the
    clamped nodes of Z at or before it only, interpolated on the grid of Z.
    The solver grid must resolve every level (``dt <= 1 / (4 level)``).
    Inputs as in :func:`euler_mixed_sdde`, with ``level`` one more argument
    that may be a list, one entry per row group.
    """
    return _front(spec, eta, W, Z, cfg, level)


def geometric_closed_form(
    a: float, b: float, c: float, x0: float, W: GridPath, Z: GridPath
) -> GridPath:
    """Pathwise solution of the scalar linear mixed equation.

    The Wiener integral is an Ito integral (hence the -b^2/2 correction); the
    rough integral obeys the pathwise chain rule with no correction:
    ``X(t) = x0 exp((a - b^2/2) t + b W(t) + c Z(t))``.  Replica blocks give
    a block.  A value outside the trust region of :class:`SolverConfig`,
    NaN or infinite included, is a :class:`SolverExplosionError`, named as
    the stepper names it.
    """
    if not W.same_grid(Z):
        raise GridError("W and Z must live on a common grid")
    t = W.times
    with np.errstate(over="ignore", invalid="ignore"):  # past an explosion
        vals = x0 * np.exp((a - 0.5 * b * b) * t + b * W.scalar_values() + c * Z.scalar_values())
    _trust_region(np.moveaxis(vals.reshape(-1, t.size), 0, -1)[:, None, None], W.dt,
                  SolverConfig.explosion_threshold, 0)
    vals.flags.writeable = False
    return GridPath(W.t0, W.dt, vals[..., None])


def _clamp(values: np.ndarray, level: float) -> np.ndarray:
    return values * (level / np.maximum(_mags(values)[..., None], level))


def _interpolate(path: GridPath, s, clamp: float | None = None):
    """Linear interpolation of ``path`` at the time(s) ``s``, clamped to its
    grid; given ``clamp``, each node is taken to that :func:`_clamp` level as
    it is read.  A time within rounding of a node reads that node alone, so a
    read at a node time never touches a later node."""
    s = np.clip(s, path.t0, path.end_time)
    pos = (s - path.t0) / path.dt
    node = np.rint(pos)
    pos = np.where(np.abs(pos - node) <= 1e-9 * np.maximum(pos, 1.0), node, pos)
    j = np.minimum(pos.astype(int), path.n_points - 2)
    theta = (pos - j)[..., None]
    lo, hi = path.values[..., j, :], path.values[..., j + 1, :]
    if clamp is not None:
        lo, hi = _clamp(lo, clamp), _clamp(hi, clamp)
    return lo + theta * (hi - lo)


def mollify_driver(Z: GridPath, level: int) -> GridPath:
    """Moving window average of the norm-clamped driver.

    ``Z^N(t) = N (H(t) - H(t - 1/N))`` on the grid of Z, with H the integral
    of h, the interpolant :meth:`MollifiedDrift.zdot` reads, and ``h(s) =
    h(0)`` for s < 0, so ``Z^N(0) = clamp_N Z(0)``.  H(s) is the trapezoid sum
    up to the node t_j at or before s plus ``(s - t_j) (h_j + h(s)) / 2``, and
    ``s h(0)`` for s <= 0.  The output is Lipschitz and converges to Z
    uniformly as the level grows.
    """
    params = MollifierParams(level)
    if Z.replicas is not None:
        raise GridError(f"mollify_driver takes one path, got a block of shape {Z.values.shape}")
    if not same_time(Z.t0, 0.0):
        raise GridError("driver must start at time 0")
    if not params.resolves(Z.dt):
        raise GridError(
            f"grid step {Z.dt} too coarse for mollifier level {level}: "
            f"need dt <= {params.max_dt}"
        )
    h = GridPath(0.0, Z.dt, _clamp(Z.values, float(level)))
    cells = np.vstack([np.zeros((1, Z.dim)), 0.5 * (h.values[:-1] + h.values[1:]) * Z.dt])
    cum, s = np.cumsum(cells, axis=0), Z.times - params.window  # H at the nodes, t_k - 1/N
    past = np.maximum(s, 0.0)
    j = np.floor(past / Z.dt).astype(int)
    start = (cum[j] + ((past - j * Z.dt) / 2)[:, None] * (h.values[j] + _interpolate(h, past))
             + np.minimum(s, 0.0)[:, None] * h.values[0])  # H(t_k - 1/N)
    return GridPath(0.0, Z.dt, float(level) * (cum - start))


class MollifiedDrift:
    """Random drift ``f(t, psi) = a(t, psi) + c(t, psi) @ dZ^N/dt (t)``.

    This is the coefficient that turns the mixed equation into an Ito delay
    equation: the derivative of the mollified driver is
    ``N (h(t) - h(max(t - 1/N, 0)))``, with h the linear interpolant of the
    clamped nodes ``clamp_N Z(t_k)``; the Ito scheme reads :meth:`zdot` a
    chunk of steps at a time, and :func:`mollify_driver` integrates the same
    h.
    """

    def __init__(self, spec: CoefficientSpec, Z: GridPath, level: int):
        self.spec = spec
        self.level = MollifierParams(level)
        self.driver = Z

    def zdot(self, t) -> np.ndarray:
        """dZ^N/dt at one time, ``(l,)``, or at an array of times,
        ``(len(t), l)``; a replica block adds a leading replica axis.  The
        value at time t reads the driver at nodes at or before t only, and
        clamps only the nodes it reads."""
        lvl, z = float(self.level.level), self.driver
        return lvl * (_interpolate(z, t, lvl)
                      - _interpolate(z, np.maximum(t - self.level.window, 0.0), lvl))

    def __call__(self, t: float, psi) -> np.ndarray:
        a = eval_coefficient(self.spec, "a", t, psi)
        c = eval_coefficient(self.spec, "c", t, psi)
        return a + (c * self.zdot(t)).sum(axis=-1)
