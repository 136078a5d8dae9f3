"""Monte Carlo harness: convergence statements as falsifiable checks.

Each experiment couples all comparison levels to the same driver realizations
(common random numbers): drivers are sampled once per replica on the finest
grid involved and restricted to coarser dyadic grids.  Convergence in
probability is rendered as a family of exceedance estimates
``P(sup |X_level - X_ref| > epsilon)`` with Wilson intervals, plus
pre-registered pass criteria (decreasing trend, final-level threshold).

One table, ``_FLAVORS``, maps each experiment kind to its code: a ``check``
of the level schedule, a ``block`` function that computes one row per
replica, and a ``reduce`` that turns the rows of all replicas into a report.
:func:`run_experiment` runs the three in turn.  Replicas are independent,
and a replica's drivers and rows do not depend on the block they are drawn
and solved in, so blocks follow the number of processes and the rows are
reduced in replica order: the same configuration produces identical reports
for any worker count.  P, the number of processes, is ``workers`` capped by
the usable CPUs, the blocks and the run's work: a run forks one more process
only for every ``_WORK_PER_PROCESS`` of stepper and norm work it counts from
its config, so a small run stays in one process and imports no pool.  Each
block is drawn and solved in one process: W and each fBm channel in one
sampler call, into one array that the block's paths keep.  A pool run
builds the fBm sampler's set-up once, before it forks P workers, which
inherit it; the blocks run in rounds of P while the parent waits, and the
error of the lowest failing block is raised, from its draw or its solve.
A level study solves the reference and all levels of a block as row groups
of one stepper call where one grid and one scheme allow it.  A block makes
its stepper calls in schedule order until its first replica explodes, and an
explosion names the lowest exploding replica and, of that replica, the first
exploding level in schedule order (the reference first).  Reports hold no
timing; the CLI times the run and writes it to a sidecar.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fraccalc
from .core import CoefficientSpec, HolderParams, InitialCondition
from .drivers import _PAD, FbmParams, prepare_fbm, sample_fbm, sample_wiener
from .grid import FieldError, GridPath, SeedSpec, _build, stack_paths
from .solver import (
    MollifierParams,
    SolverConfig,
    SolverExplosionError,
    _reach_steps,
    _STEPS,
    euler_ito_sdde,
    euler_mixed_sdde,
    geometric_closed_form,
)

__all__ = [
    "ExperimentConfig",
    "ExceedanceEstimate",
    "LevelResult",
    "ConvergenceReport",
    "MomentReport",
    "QuasiReport",
    "estimate_exceedance",
    "run_experiment",
    "lognormal_terminal_second_moment",
    "quasi_contraction_order",
    "EXPERIMENT_KINDS",
]

PERTURBATIONS = ("none", "drift_shift", "gain_shift", "initial_shift")
REFERENCES = ("closed_form", "fine_euler")
_WILSON_Z = 1.959963984540054  # two-sided 95%


class ExperimentError(FieldError):
    """Configuration or runtime inconsistency inside the harness."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One Monte Carlo study: equation, level schedule, budget, criteria.

    ``levels`` is interpreted per kind: perturbation indices n for
    coefficient convergence, delay taps for vanishing delay, mesh sizes for
    Euler refinement, mollifier levels for the Ito limit, moment orders p for
    the moment study and driver perturbation sizes for quasi-contractivity.
    """

    kind: str
    spec: CoefficientSpec
    params: HolderParams
    initial: InitialCondition
    horizon: float
    n_steps: int
    levels: tuple
    replicas: int
    epsilon: float
    seed: int
    workers: int = 1
    driver_method: str = FbmParams.method
    perturbation: str = "none"
    reference: str = "closed_form"
    m_trunc: float = 10.0
    r_trunc: float = 1e3
    moment_p: float | None = None
    max_final_exceedance: float = 0.05
    min_decreasing_steps: int | None = None
    ratio_bound: float = 10.0
    heavy_tail_fails: bool = False
    emit_distances: bool = False

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ExperimentError(f"unknown experiment kind {self.kind!r}")
        if self.replicas < 30:
            raise ExperimentError(
                f"replicas must be at least 30 for interval estimates, got {self.replicas}",
                "replicas",
            )
        if not self.epsilon > 0:
            raise ExperimentError("epsilon must be positive", "epsilon")
        if not self.horizon > 0:
            raise ExperimentError(f"horizon must be positive, got {self.horizon}", "horizon")
        self.fbm  # the driver grid and law must be valid
        if len(self.levels) < 1:
            raise ExperimentError("need at least one level", "levels")
        diffs = np.diff(np.asarray(self.levels, dtype=float))
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ExperimentError("level schedule must be strictly monotone", "levels")
        if self.perturbation not in PERTURBATIONS:
            raise ExperimentError(f"unknown perturbation {self.perturbation!r}", "perturbation")
        if self.reference not in REFERENCES:
            raise ExperimentError(f"unknown reference {self.reference!r}", "reference")
        if self.workers < 1:
            raise ExperimentError("workers must be positive")  # a flag, not a config key
        if self.min_decreasing_steps is not None and self.min_decreasing_steps < 0:
            raise ExperimentError(
                f"min_decreasing_steps must be non-negative, got {self.min_decreasing_steps}",
                "min_decreasing_steps",
            )

    @property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(n_steps=self.n_steps, horizon=self.horizon)

    @property
    def fbm(self) -> FbmParams:
        return FbmParams(self.params.hurst, self.n_steps, self.horizon, self.driver_method)


@dataclass(frozen=True)
class ExceedanceEstimate:
    """Wilson 95% interval around an exceedance fraction."""

    estimate: float
    ci_low: float
    ci_high: float
    n_samples: int


def estimate_exceedance(distances, epsilon: float) -> ExceedanceEstimate:
    """Fraction of per-path sup distances above epsilon, with Wilson 95% CI."""
    d = np.asarray(distances, dtype=float)
    n = d.size
    if n < 30:
        raise ExperimentError(f"need at least 30 samples, got {n}")
    hits = int(np.sum(d > epsilon))
    p_hat = hits / n
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2 * n)) / denom
    half = (
        _WILSON_Z * np.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n)) / denom
    )
    return ExceedanceEstimate(
        float(p_hat), float(max(0.0, center - half)), float(min(1.0, center + half)), n
    )


def _report_fields(report, **overrides) -> dict:
    """The report's fields but ``processes``, with ``overrides`` replacing or adding keys."""
    names = [f.name for f in fields(report) if f.name != "processes"]
    return {**{name: getattr(report, name) for name in names}, **overrides}


@dataclass(frozen=True)
class LevelResult:
    level: float
    exceedance: ExceedanceEstimate
    mean_distance: float
    median_distance: float
    distances: tuple = ()

    def to_dict(self) -> dict:
        ex = self.exceedance
        d = _report_fields(self, exceedance=ex.estimate, ci_low=ex.ci_low,
                           ci_high=ex.ci_high, n_samples=ex.n_samples)
        del d["distances"]  # per replica: distances.csv, not the report
        return d


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    epsilon: float
    replicas: int
    master_seed: int
    levels: tuple[LevelResult, ...]
    passed: bool
    reasons: tuple[str, ...]
    reference: str = ""
    processes: int = field(default=1, compare=False)  # for run_meta.json

    def to_dict(self) -> dict:
        return _report_fields(self, levels=[lv.to_dict() for lv in self.levels])


@dataclass(frozen=True)
class MomentReport:
    p_values: tuple[float, ...]
    sup_moments: tuple[float, ...]
    truncated_moments: tuple[float, ...]
    m_trunc: float
    trunc_fraction: float
    stability_p: float
    stability_rel_change: float
    survival_thresholds: tuple[float, ...]
    survival_probs: tuple[float, ...]
    heavy_tail_share: float
    heavy_tail_alarm: bool
    oracle_second_moment: float | None
    oracle_gap_se: float | None
    replicas: int
    master_seed: int
    passed: bool
    reasons: tuple[str, ...]
    processes: int = field(default=1, compare=False)

    def to_dict(self) -> dict:
        return _report_fields(self, kind="moments")


@dataclass(frozen=True)
class QuasiReport:
    epsilons: tuple[float, ...]
    ratios: tuple[float | None, ...]
    numerators: tuple[float, ...]
    denominators: tuple[float, ...]
    indicator_counts: tuple[int, ...]
    p: float
    m_trunc: float
    r_trunc: float
    replicas: int
    master_seed: int
    passed: bool
    reasons: tuple[str, ...]
    processes: int = field(default=1, compare=False)

    def to_dict(self) -> dict:
        return _report_fields(self, kind="quasi_contract")


# --------------------------------------------------------------------------
# driver sampling and spec perturbations


def _sample_drivers(spec: CoefficientSpec, fbm: FbmParams, seeds: SeedSpec | list[SeedSpec]):
    """Wiener and fBm drivers on the grid of ``fbm``: one path each for a
    seed, replica blocks for a list of replica seeds.

    W draws from ``seed.child(0)``, in one ``sample_wiener`` call for all
    seeds.  A single fBm channel draws from ``seed.child(1)``, channel j of
    several from ``seed.child(1).child(j)``; each channel is one
    ``sample_fbm`` call for all seeds.  The paths keep the samplers' arrays
    (or, for several channels, their one stacked copy).  Experiment blocks
    and ``sddelab solve`` both sample here.
    """
    each = [seeds] if isinstance(seeds, SeedSpec) else list(seeds)
    w = sample_wiener(fbm.n_steps, fbm.horizon, spec.n_wiener, [s.child(0) for s in each])
    zs = [s.child(1) for s in each]
    if spec.n_holder == 1:
        z = sample_fbm(fbm, zs)
    else:
        z = stack_paths([sample_fbm(fbm, [s.child(j) for s in zs])
                         for j in range(spec.n_holder)])
    if isinstance(seeds, SeedSpec):
        return tuple(GridPath(p.t0, p.dt, p.values[0]) for p in (w, z))
    return w, z


def _perturbed_spec(spec: CoefficientSpec, perturbation: str, n: float) -> CoefficientSpec:
    if perturbation in ("none", "initial_shift"):
        return spec
    shift = 1.0 / n
    drift = spec.drift
    if perturbation == "drift_shift":
        drift = replace(drift, const=drift.const + shift)
    else:  # gain_shift
        drift = replace(drift, gain_now=drift.gain_now + shift * np.eye(spec.dim)[None, :, :])
    return replace(spec, drift=drift)


def _sup_distance(x: GridPath, y: GridPath) -> np.ndarray:
    """Per-replica sup distance between two replica blocks, |x - y| taken
    ``_STEPS`` nodes at a time."""
    return np.max([fraccalc._mags(x.values[..., lo : lo + _STEPS, :]
                                  - y.values[..., lo : lo + _STEPS, :]).max(axis=-1)
                   for lo in range(0, x.n_points, _STEPS)], axis=0)


class _Explosions(list):
    """``with _Explosions() as solve``: ``solve(labels, stepper, *args)`` returns the
    stepper's result, or None if it explodes or, without a call, once row 0 has exploded.
    Leaving raises the lowest row's explosion (the earliest on a tie), tagged ``labels[group]``."""

    def __call__(self, labels, stepper, *args):
        try:
            return None if any(exc.replica == 0 for exc in self) else stepper(*args)
        except SolverExplosionError as exc:
            exc.level = labels[exc.group]
            self.append(exc)

    def __enter__(self):
        return self

    def __exit__(self, failure, *_):
        if self and failure is None:
            raise min(self, key=lambda exc: exc.replica)


# --------------------------------------------------------------------------
# per-block work, one function per experiment kind.  Each takes the drawn
# drivers of a replica block, W and Z on the grid of ``n_steps``, solves the
# block together and returns one row per replica.


def _level_distances(reference: GridPath, levels) -> np.ndarray:
    """Per-replica sup distance of every level's solve to the reference solve."""
    return np.column_stack([_sup_distance(x, reference) for x in levels])


def _block_coeff(cfg: ExperimentConfig, w: GridPath, z: GridPath) -> np.ndarray:
    """Solutions under level-n coefficient perturbations versus the base equation."""
    shifted = cfg.perturbation == "initial_shift"
    specs = [_perturbed_spec(cfg.spec, cfg.perturbation, n) for n in cfg.levels]
    etas = [cfg.initial.shifted(1.0 / n) if shifted else cfg.initial for n in cfg.levels]
    with _Explosions() as solve:
        paths = solve(("reference", *cfg.levels), euler_mixed_sdde,
                      [cfg.spec, *specs], [cfg.initial, *etas], w, z, cfg.solver_config)
    return _level_distances(paths[0], paths[1:])


def _block_delay(cfg: ExperimentConfig, w: GridPath, z: GridPath) -> np.ndarray:
    """Pointwise-delay solutions as the tap shrinks versus the no-delay equation."""
    specs = [cfg.spec.merge_delay(), *(cfg.spec.with_tau(tau) for tau in cfg.levels)]
    with _Explosions() as solve:
        paths = solve(("reference", *cfg.levels), euler_mixed_sdde,
                      specs, cfg.initial, w, z, cfg.solver_config)
    return _level_distances(paths[0], paths[1:])


def _block_ito(cfg: ExperimentConfig, w: GridPath, z: GridPath) -> np.ndarray:
    """Mollified-drift Ito solutions versus the mixed solution as the level grows."""
    scfg = cfg.solver_config
    with _Explosions() as solve:
        reference = solve(("reference",), euler_mixed_sdde, cfg.spec, cfg.initial, w, z, scfg)
        levels = solve(cfg.levels, euler_ito_sdde, cfg.spec, cfg.initial, w, z, scfg,
                       [int(level) for level in cfg.levels])
    return _level_distances(reference, levels)


def _geometric_triple(cfg: ExperimentConfig):
    """The gains (a, b, c) of a scalar pure-gain no_delay spec, else None."""
    spec = cfg.spec
    blocks = (spec.drift, spec.diffusion, spec.zdrive)
    ok = (spec.family == "no_delay" and spec.dim == spec.n_wiener == spec.n_holder == 1
          and all(not np.any(b.const) and b.time_modulation == "none" for b in blocks))
    return tuple(float(b.gain_now[0, 0, 0]) for b in blocks) if ok else None


def _block_euler(cfg: ExperimentConfig, w: GridPath, z: GridPath) -> np.ndarray:
    """Euler paths across dyadic meshes versus the closed form (or a 4x-finer solve)."""
    x0 = float(cfg.initial.eta.values[-1, 0])
    eta = cfg.initial
    if cfg.spec.reach == 0:  # x depends on eta(0) alone
        eta = replace(eta, eta=GridPath(0.0, eta.eta.dt, eta.eta.values[-1:]))
    out = np.empty((w.replicas, len(cfg.levels)))
    with _Explosions() as solve:
        reference = solve(("reference",), *(
            (geometric_closed_form, *_geometric_triple(cfg), x0, w, z)
            if cfg.reference == "closed_form" else
            (euler_mixed_sdde, cfg.spec, eta, w, z, cfg.solver_config)))
        for i, level in enumerate(cfg.levels):  # one solve per mesh: the grids differ
            step = cfg.n_steps // int(level)
            scfg = SolverConfig(n_steps=int(level), horizon=cfg.horizon)
            level_path = solve((level,), euler_mixed_sdde,
                               cfg.spec, eta, w.restrict(step), z.restrict(step), scfg)
            if level_path is not None and reference is not None:
                out[:, i] = _sup_distance(level_path, reference.restrict(step))
            del level_path  # the next mesh is solved without this one held
    return out


def _delay_norm_t(cfg: ExperimentConfig, x: GridPath) -> np.ndarray:
    """Per replica of a solution block: the delay norm over [-r, horizon]."""
    norm_inf, norm_1 = fraccalc._delay_norm_block(x, cfg.params.alpha, cfg.initial.r, cfg.horizon)
    return norm_inf + norm_1


def _block_moments(cfg: ExperimentConfig, w: GridPath, z: GridPath) -> np.ndarray:
    """Per replica: the sup norm, the delay norm of the solution and the driver seminorm."""
    with _Explosions() as solve:
        x = solve(("reference",), euler_mixed_sdde, cfg.spec, cfg.initial, w, z, cfg.solver_config)
    return np.column_stack((
        fraccalc._mags(x.values).max(axis=1),
        _delay_norm_t(cfg, x),
        fraccalc._seminorm_block(z.values, z.dt, cfg.params.alpha),
    ))


def _block_quasi(cfg: ExperimentConfig, w: GridPath, z1: GridPath) -> np.ndarray:
    """Per replica and perturbation size: p-th power distances on the truncation event."""
    scfg = cfg.solver_config
    p = _quasi_p(cfg)

    def semi(values: np.ndarray) -> np.ndarray:
        return fraccalc._seminorm_block(values, z1.dt, cfg.params.alpha)

    ramp = z1.times[:, None]
    z2s = [GridPath(z1.t0, z1.dt, z1.values + eps * ramp) for eps in cfg.levels]
    with _Explosions() as solve:
        paths = solve(("reference", *cfg.levels), euler_mixed_sdde,
                      cfg.spec, cfg.initial, w, [z1, *z2s], scfg)
    y1, *y2s = paths
    inside_1 = (semi(z1.values) <= cfg.m_trunc) & (_delay_norm_t(cfg, y1) <= cfg.r_trunc)
    out = np.zeros((w.replicas, len(cfg.levels), 3))
    for i, (z2, y2) in enumerate(zip(z2s, y2s)):
        indicator = (
            inside_1 & (semi(z2.values) <= cfg.m_trunc) & (_delay_norm_t(cfg, y2) <= cfg.r_trunc)
        )
        sup = _sup_distance(y1, y2)
        diff_semi = semi(z2.values - z1.values)
        # Python powers, one replica at a time: numpy's vectorized power may
        # round differently in the last bit.
        for r in np.flatnonzero(indicator):
            out[r, i] = (float(sup[r]) ** p, float(diff_semi[r]) ** p, 1.0)
    return out


# Replicas per block, and stepper rows (replicas x the rows of :func:`_per_replica`)
# per block, at most: together they bound the memory of one block's solve.
_BLOCK_REPLICAS = 50
_BLOCK_ROWS = 450
# The row-steps of :func:`_run_work` that repay one more process: alternating
# 1- and 2-worker runs won 9 of 10 pairs only from ~33 million on (CHANGES.md).
_WORK_PER_PROCESS = 16_000_000


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """The rows of one block, drawn and solved here; an explosion names its replica."""
    _, fn, _ = _FLAVORS[cfg.kind]
    w, z = _sample_drivers(cfg.spec, cfg.fbm, [SeedSpec(cfg.seed, r) for r in replicas])
    try:
        return fn(cfg, w, z)
    except SolverExplosionError as exc:
        exc.replica = replicas[exc.replica]
        raise


def _block_size(cfg: ExperimentConfig, workers: int) -> int:
    """Replicas per block: the replicas split evenly over ``workers``
    processes, at most ``_BLOCK_REPLICAS`` and ``_BLOCK_ROWS`` rows held at once."""
    return min(_BLOCK_REPLICAS, max(1, _BLOCK_ROWS // _per_replica(cfg)[0]),
               -(-cfg.replicas // workers))


def _processes(cfg: ExperimentConfig) -> int:
    """P, the processes of a run: ``workers``, capped by the usable CPUs, by
    one per ``_WORK_PER_PROCESS`` of :func:`_run_work` (at least one) and by
    the blocks that P processes split the replicas into."""
    procs = min(cfg.workers, _usable_cpus(), max(1, _run_work(cfg) // _WORK_PER_PROCESS))
    return min(procs, -(-cfg.replicas // _block_size(cfg, procs)))


def _map_replicas(cfg: ExperimentConfig, procs: int) -> np.ndarray:
    """Rows of all replicas in replica order.

    The replicas are split evenly over P = ``procs`` processes, at most
    ``_BLOCK_REPLICAS`` and ``_BLOCK_ROWS`` stepper rows held at once per
    block.  At P = 1 the blocks run here in replica order.  Otherwise the
    fBm sampler's set-up is built here, then P forked workers inherit it and
    run the blocks in rounds of P while this process waits.  The error of the
    lowest failing block is raised, from its draw or its solve; no later
    round runs.
    """
    size = _block_size(cfg, procs)
    blocks = [range(lo, min(lo + size, cfg.replicas)) for lo in range(0, cfg.replicas, size)]
    if procs == 1:
        return np.concatenate([_run_block(cfg, replicas) for replicas in blocks])
    import multiprocessing  # only a run that forks pays for these imports
    from concurrent.futures import ProcessPoolExecutor
    prepare_fbm(cfg.fbm)
    rows = []
    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork")) as pool:
        for lo in range(0, len(blocks), procs):
            rows += pool.map(_run_block, [cfg] * procs, blocks[lo : lo + procs])
    return np.concatenate(rows)


# --------------------------------------------------------------------------
# level checks, one per experiment kind: the rules a level schedule must meet
# before any replica is solved.  Each returns the (spec, meshes, mollifier levels)
# its run reads for :func:`_check_reads`, or None for the spec on the n_steps grid;
# vanishing_delay makes that check itself, before its taps, and returns no mesh.


def _require_counts(cfg: ExperimentConfig, what: str) -> None:
    """Levels that count something (mesh steps, mollifier levels): increasing
    integers >= 1, so that the schedule refines as its criteria assume."""
    levels = list(cfg.levels)
    if any(not float(n).is_integer() or n < 1 for n in levels) or levels != sorted(levels):
        raise ExperimentError(f"levels of {cfg.kind} are {what}, increasing integers >= 1; "
                              f"got {levels}", "levels")


def _oversized(fbm: FbmParams, spec: CoefficientSpec | None = None, r: float = 0.0,
               replicas: int = 1, rows: int = 1) -> str | None:
    """Why the driver grid of ``fbm``, n steps on [0, horizon], cannot be
    allocated, or None, counted before anything is allocated: ``replicas`` draws
    of n + 1 values on each driver channel of ``spec`` (one fBm path without a
    spec), the sampler's set-up, and ``rows`` stepper rows per replica of
    ``spec.dim`` values on the ``q + n + 1`` nodes of the history of length
    ``r`` and the grid.  Numpy refuses any array of more than ``intp`` max / 8
    float64 values on every machine."""
    n, method = fbm.n_steps, fbm.method
    pad = -(-n // _PAD) * _PAD
    channels, dim = (1, 0) if spec is None else (max(spec.n_wiener, spec.n_holder), spec.dim)
    sizes = {
        "the drivers": replicas * (n + 1) * channels,
        "the Cholesky factor": pad * pad // 2 if method == "cholesky" else 0,
        "the circulant embedding": 4 * n if method == "davies_harte" else 0,
        "the stepper buffer": replicas * rows * (round(r * n / fbm.horizon) + n + 1) * dim,
    }
    for what, values in sizes.items():
        if values > np.iinfo(np.intp).max // 8:
            return (f"a driver grid of {n} steps does not fit in memory: {what} would "
                    f"take {values * 8 / 2**50:.3g} PiB, more than numpy can allocate")
    return None


def _per_replica(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """What one replica of a block solves, from the config alone: the stepper rows
    held at once, the row-steps of all stepper calls and the norm passes."""
    n, levels = cfg.n_steps, len(cfg.levels)
    if cfg.kind == "euler_refinement":
        return 2, sum(map(int, cfg.levels)) + (cfg.reference != "closed_form") * n, 0
    if cfg.kind == "moments":
        return 1, n, 2
    return levels + 1, (levels + 1) * n, (cfg.kind == "quasi_contract") * (3 * levels + 2)


def _check_sizes(cfg: ExperimentConfig) -> None:
    """Refuse a grid whose arrays numpy cannot allocate, naming ``n_steps``:
    a block's drivers and its stepper buffer, ``(q + n + 1)`` nodes of every
    row it holds at once, on the driver grid of n steps."""
    if message := _oversized(cfg.fbm, cfg.spec, cfg.initial.r, _block_size(cfg, 1),
                             _per_replica(cfg)[0]):
        raise ExperimentError(message, "n_steps")


def _run_work(cfg: ExperimentConfig) -> int:
    """The work the processes of a run share, counted from its config alone:
    every replica's stepper row-steps (:func:`_per_replica`) of ``dim``
    components, plus an eighth of a row-step for each of the ``n * n / 2`` lag
    pairs of each norm pass.  The draws run in the workers too, but count and
    cut stay as measured without them."""
    _, steps, norms = _per_replica(cfg)
    return cfg.replicas * (steps * cfg.spec.dim + norms * cfg.n_steps * cfg.n_steps // 16)


def _check_reads(spec: CoefficientSpec, initial: InitialCondition, horizon: float,
                 *meshes: int, levels=()) -> None:
    """Refuse, before any draw, a history, a delay read of ``spec`` or a mollifier level
    of ``levels`` off the grid of a mesh of ``meshes`` steps on [0, horizon]: the
    history names ``initial``, the read its ``coefficients`` key, a level ``level``."""
    for n in meshes:
        dt = SolverConfig(n_steps=n, horizon=horizon).dt
        q = _build("initial", initial.steps, dt)
        if levels and not MollifierParams(int(max(levels))).resolves(dt):
            raise ExperimentError(f"mesh dt={dt} too coarse for mollifier level {max(levels)}",
                                  "level")
        _build("coefficients", _reach_steps, spec, dt, q)


def _check_coeff(cfg: ExperimentConfig) -> None:
    if any(not n > 0 for n in cfg.levels):
        raise ExperimentError(
            f"levels of coeff_convergence are perturbation indices n > 0; got {list(cfg.levels)}",
            "levels",
        )


def _check_delay(cfg: ExperimentConfig) -> tuple:
    if cfg.spec.family != "pointwise_delay":
        raise ExperimentError("vanishing delay needs a pointwise_delay spec", "family")
    reference = cfg.spec.merge_delay()  # the spec's own tap is never read
    _check_reads(reference, cfg.initial, cfg.horizon, cfg.n_steps)  # the history before the taps
    dt = cfg.solver_config.dt
    for tau in cfg.levels:
        try:
            _reach_steps(cfg.spec.with_tau(tau), dt, cfg.initial.steps(dt))
        except ValueError as exc:
            raise ExperimentError(
                f"levels of vanishing_delay are taps on the mesh in [0, {abs(cfg.initial.r):g}], "
                f"the initial delay; got {list(cfg.levels)}: {exc}", "levels"
            ) from exc
    return reference, (), ()


def _check_euler(cfg: ExperimentConfig) -> tuple:
    _require_counts(cfg, "mesh sizes")
    levels = [int(n) for n in cfg.levels]
    finest = max(levels)
    if any(finest % n for n in levels):
        raise ExperimentError(f"mesh levels must divide the finest mesh; got {levels}", "levels")
    if cfg.reference == "closed_form" and _geometric_triple(cfg) is None:
        raise ExperimentError(
            "closed-form reference unavailable for this spec; use reference='fine_euler'",
            "reference",
        )
    grid = finest if cfg.reference == "closed_form" else 4 * finest  # the reference's grid
    if cfg.n_steps != grid:
        raise ExperimentError(f"a mesh study with reference {cfg.reference} draws its drivers "
                              f"on {grid} steps; got {cfg.n_steps}", "n_steps")
    # a spec that reads no delay reads only the history's last value
    return cfg.spec, (*levels, cfg.n_steps) if cfg.spec.reach > 0 else (), ()


def _check_ito(cfg: ExperimentConfig) -> tuple:
    _require_counts(cfg, "mollifier levels")
    return cfg.spec, (cfg.n_steps,), cfg.levels


def _check_moments(cfg: ExperimentConfig) -> None:
    if any(not p > 0 for p in cfg.levels):
        raise ExperimentError(f"levels of moments are moment orders p > 0; got {list(cfg.levels)}",
                              "levels")


def _check_quasi(cfg: ExperimentConfig) -> None:
    p = _quasi_p(cfg)
    if p < 4.0 / (1.0 - 2.0 * cfg.params.alpha) - 1e-12:
        raise ExperimentError(f"moment order p={p} below the admissible range 4/(1-2 alpha)",
                              "moment_p")


# --------------------------------------------------------------------------
# reduction and pass criteria


def _monotone_violations(levels: tuple[LevelResult, ...]) -> list[str]:
    """Strict exceedance increases whose Wilson intervals do not overlap."""
    reasons = []
    for prev, cur in zip(levels, levels[1:]):
        if (
            cur.exceedance.estimate > prev.exceedance.estimate
            and cur.exceedance.ci_low > prev.exceedance.ci_high
        ):
            reasons.append(
                f"exceedance rose from {prev.exceedance.estimate:.3f} at level "
                f"{prev.level:g} to {cur.exceedance.estimate:.3f} at level "
                f"{cur.level:g} with disjoint intervals"
            )
    return reasons


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-d float array, bit for bit, without its NaN check,
    which imports ``numpy.ma``.  The same partition, then the middle value or
    ``(lo + hi) / 2``, as ``np.mean`` computes them: its sum starts from +0.0,
    so a median of -0.0 comes out as 0.0, and the sum of -5e-324 and 0.0
    halves to -0.0.  The partition puts any NaN last, and then the median is
    that NaN."""
    half = values.size // 2
    kth = [half] if values.size % 2 else [half - 1, half]
    part = np.partition(values, [*kth, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if values.size % 2:
        return float(0.0 + part[half])
    return float((0.0 + part[half - 1] + part[half]) / 2)


def _reduce_convergence(cfg: ExperimentConfig, table: np.ndarray) -> ConvergenceReport:
    level_results = []
    for i, level in enumerate(cfg.levels):
        dist = table[:, i]
        level_results.append(
            LevelResult(
                level=float(level),
                exceedance=estimate_exceedance(dist, cfg.epsilon),
                mean_distance=float(dist.mean()),
                median_distance=_median(dist),
                distances=tuple(float(x) for x in dist) if cfg.emit_distances else (),
            )
        )
    levels = tuple(level_results)
    reasons = _monotone_violations(levels)
    final = levels[-1].exceedance.estimate
    if final >= cfg.max_final_exceedance:
        reasons.append(
            f"final-level exceedance {final:.3f} >= {cfg.max_final_exceedance}"
        )
    means = [lv.mean_distance for lv in levels]
    if cfg.kind == "euler_refinement":
        drops = sum(1 for a, b in zip(means, means[1:]) if b <= a)
        need = (
            cfg.min_decreasing_steps
            if cfg.min_decreasing_steps is not None
            else max(len(means) - 2, 1)
        )
        if drops < need:
            reasons.append(f"mean distance decreased in only {drops} steps, need {need}")
    if cfg.kind == "ito_limit" and any(b >= a for a, b in zip(means, means[1:])):
        reasons.append("mean distance not strictly decreasing across mollifier levels")
    return ConvergenceReport(
        kind=cfg.kind,
        epsilon=cfg.epsilon,
        replicas=cfg.replicas,
        master_seed=cfg.seed,
        levels=levels,
        passed=not reasons,
        reasons=tuple(reasons),
        reference={"coeff_convergence": "base_spec", "vanishing_delay": "no_delay_limit",
                   "euler_refinement": cfg.reference, "ito_limit": "euler_mixed"}[cfg.kind],
    )


def lognormal_terminal_second_moment(
    a: float, b: float, c: float, x0: float, horizon: float, hurst: float
) -> float:
    """E[X(T)^2] of the scalar linear mixed equation.

    The Wiener part is geometric Brownian motion and the rough part is a
    lognormal factor with variance T^(2H):
    ``x0^2 exp((2a + b^2) T + 2 c^2 T^(2H))``.
    """
    return x0**2 * np.exp((2 * a + b * b) * horizon + 2 * c * c * horizon ** (2 * hurst))


def quasi_contraction_order(alpha: float) -> float:
    """Smallest even integer p with p >= 4 / (1 - 2 alpha)."""
    lo = 4.0 / (1.0 - 2.0 * alpha)
    p = int(np.ceil(lo))
    return float(p if p % 2 == 0 else p + 1)


def _quasi_p(cfg: ExperimentConfig) -> float:
    """The moment order of quasi_contract: ``moment_p``, or the smallest admissible."""
    return quasi_contraction_order(cfg.params.alpha) if cfg.moment_p is None else cfg.moment_p


@np.errstate(over="ignore", invalid="ignore")  # a moment past the float range reads inf
def _reduce_moments(cfg: ExperimentConfig, rows: np.ndarray) -> MomentReport:
    """Moment estimates of the sup norm and the truncated delay norm."""
    sup, delay_norm, z_semi = rows[:, 0], rows[:, 1], rows[:, 2]
    inside = z_semi <= cfg.m_trunc
    p_values = tuple(float(p) for p in cfg.levels)
    sup_moments = tuple(float(np.mean(sup**p)) for p in p_values)
    truncated = tuple(float(np.mean((delay_norm**p) * inside)) for p in p_values)

    stability_p = 4.0 if 4.0 in p_values else p_values[-1]
    half = sup[: cfg.replicas // 2]
    est_half = float(np.mean(half**stability_p))
    est_full = float(np.mean(sup**stability_p))
    rel_change = abs(est_full - est_half) / est_full if est_full > 0 else 0.0

    p_top = max(p_values)
    contrib = np.sort(sup**p_top)
    k_top = max(1, int(np.ceil(0.01 * cfg.replicas)))
    share = float(contrib[-k_top:].sum() / contrib.sum()) if contrib.sum() > 0 else 0.0
    alarm = not share <= 0.5  # a NaN share raises the alarm

    thresholds = tuple(float(q) for q in np.quantile(sup, [0.5, 0.75, 0.9, 0.95, 0.99]))
    survival = tuple(float(np.mean(sup > thr)) for thr in thresholds)

    reasons = []
    oracle = None
    gap_se = None
    triple = _geometric_triple(cfg)
    if triple is not None and 2.0 in p_values:
        x0 = float(cfg.initial.eta.values[-1, 0])
        oracle = lognormal_terminal_second_moment(
            *triple, x0, cfg.horizon, cfg.params.hurst
        )
        se = float(np.std(sup**2.0, ddof=1) / np.sqrt(cfg.replicas))
        gap_se = (sup_moments[p_values.index(2.0)] - oracle) / se if se > 0 else np.inf
        if not sup_moments[p_values.index(2.0)] >= oracle - 3.0 * se:
            reasons.append(
                f"sup second moment {sup_moments[p_values.index(2.0)]:.4f} below the "
                f"terminal-moment lower bound {oracle:.4f} by more than 3 SE"
            )
    if not rel_change < 0.10:  # each criterion fails on a NaN
        reasons.append(
            f"half-sample p={stability_p:g} estimate moved by {rel_change:.1%} (>= 10%)"
        )
    if alarm and cfg.heavy_tail_fails:
        reasons.append(f"top-1% of samples carries {share:.1%} of the p={p_top:g} moment")

    return MomentReport(
        p_values=p_values,
        sup_moments=sup_moments,
        truncated_moments=truncated,
        m_trunc=cfg.m_trunc,
        trunc_fraction=float(np.mean(inside)),
        stability_p=stability_p,
        stability_rel_change=rel_change,
        survival_thresholds=thresholds,
        survival_probs=survival,
        heavy_tail_share=share,
        heavy_tail_alarm=alarm,
        oracle_second_moment=oracle,
        oracle_gap_se=None if gap_se is None else float(gap_se),
        replicas=cfg.replicas,
        master_seed=cfg.seed,
        passed=not reasons,
        reasons=tuple(reasons),
    )


def _reduce_quasi(cfg: ExperimentConfig, rows: np.ndarray) -> QuasiReport:
    """Ratio of p-th moment solution distances to driver distances, on the
    truncation event, across a schedule of driver perturbation sizes."""
    sums = rows.sum(axis=0)  # rows: (replicas, levels, 3)
    ratios = [float(num / den) if den > 0 else None for num, den, _ in sums]
    finite = [r for r in ratios if r is not None and r > 0]
    counts = sums[:, 2]
    reasons = []
    if not counts.any():
        reasons.append("indicator event empty in every level: inconclusive")
    elif not finite:
        undefined = [eps for eps, r, c in zip(cfg.levels, ratios, counts) if r is None and c > 0]
        if undefined:
            reasons.append(
                f"driver distance 0 on a non-empty indicator event at epsilon "
                f"{', '.join(f'{e:g}' for e in undefined)}: ratio undefined, inconclusive"
            )
        if 0.0 in ratios:
            reasons.append("every defined ratio is 0 (solutions do not move): inconclusive")
    elif max(finite) / min(finite) >= cfg.ratio_bound:
        reasons.append(
            f"ratio spread {max(finite) / min(finite):.2f} exceeds bound {cfg.ratio_bound}"
        )
    return QuasiReport(
        epsilons=tuple(float(e) for e in cfg.levels),
        ratios=tuple(ratios),
        numerators=tuple(float(v) for v in sums[:, 0]),
        denominators=tuple(float(v) for v in sums[:, 1]),
        indicator_counts=tuple(int(v) for v in sums[:, 2]),
        p=_quasi_p(cfg),
        m_trunc=cfg.m_trunc,
        r_trunc=cfg.r_trunc,
        replicas=cfg.replicas,
        master_seed=cfg.seed,
        passed=not reasons,
        reasons=tuple(reasons),
    )


# --------------------------------------------------------------------------
# the flavor table: the one place that maps an experiment kind to its code

_FLAVORS = {  # kind: (check, block, reduce)
    "coeff_convergence": (_check_coeff, _block_coeff, _reduce_convergence),
    "vanishing_delay": (_check_delay, _block_delay, _reduce_convergence),
    "euler_refinement": (_check_euler, _block_euler, _reduce_convergence),
    "ito_limit": (_check_ito, _block_ito, _reduce_convergence),
    "moments": (_check_moments, _block_moments, _reduce_moments),
    "quasi_contract": (_check_quasi, _block_quasi, _reduce_quasi),
}
EXPERIMENT_KINDS = tuple(_FLAVORS)


def run_experiment(cfg: ExperimentConfig):
    """Check the level schedule, the grids it reads and the array sizes, compute
    the rows of all replicas in P processes, reduce them to a report that notes
    P, outside ``to_dict``."""
    check, _, reduce = _FLAVORS[cfg.kind]
    spec, meshes, levels = _build("experiment", check, cfg) or (cfg.spec, (cfg.n_steps,), ())
    _build("experiment", _check_reads, spec, cfg.initial, cfg.horizon, *meshes, levels=levels)
    _build("experiment", _check_sizes, cfg)
    procs = _processes(cfg)
    return replace(reduce(cfg, _map_replicas(cfg, procs)), processes=procs)
