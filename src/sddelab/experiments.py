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
and a replica's rows do not depend on the block it is solved in, so blocks
follow the pool size (one pool task each) and the rows are reduced in
replica order: the same configuration produces identical reports for any
worker count.  A level study solves the reference and all levels of a block
as row groups of one stepper call where one grid and one scheme allow it.
A solver explosion names the lowest exploding replica and, of that
replica, the first exploding level in schedule order (the reference first):
the block is solved again replica by replica, and the stepper names the
first exploding row group.  Reports hold no timing; the CLI times the run
and writes it to a sidecar.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fraccalc
from .core import (
    CoefficientSpec,
    HolderParams,
    InitialCondition,
)
from .drivers import FbmParams, sample_fbm, sample_wiener
from .grid import GridPath, SeedSpec, stack_paths, stack_replicas
from .solver import (
    MollifierParams,
    SolverConfig,
    SolverExplosionError,
    _tap_steps,
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


class ExperimentError(ValueError):
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
    driver_method: str = "cholesky"
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
                f"replicas must be at least 30 for interval estimates, got {self.replicas}"
            )
        if not self.epsilon > 0:
            raise ExperimentError("epsilon must be positive")
        if not self.horizon > 0:
            raise ExperimentError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ExperimentError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.kind != "euler_refinement":  # n_steps sets the driver and solver grids
            FbmParams(self.params.hurst, self.n_steps, self.horizon, self.driver_method)
            self.solver_config
        if len(self.levels) < 1:
            raise ExperimentError("need at least one level")
        diffs = np.diff(np.asarray(self.levels, dtype=float))
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ExperimentError("level schedule must be strictly monotone")
        if self.perturbation not in PERTURBATIONS:
            raise ExperimentError(f"unknown perturbation {self.perturbation!r}")
        if self.reference not in REFERENCES:
            raise ExperimentError(f"unknown reference {self.reference!r}")
        if self.workers < 1:
            raise ExperimentError("workers must be positive")
        if self.min_decreasing_steps is not None and self.min_decreasing_steps < 0:
            raise ExperimentError(
                f"min_decreasing_steps must be non-negative, got {self.min_decreasing_steps}"
            )

    @property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            n_steps=self.n_steps, horizon=self.horizon, delay=self.initial.r
        )


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
    """The report's fields as a dict, with ``overrides`` replacing or adding keys."""
    return {**{f.name: getattr(report, f.name) for f in fields(report)}, **overrides}


@dataclass(frozen=True)
class LevelResult:
    level: float
    exceedance: ExceedanceEstimate
    mean_distance: float
    median_distance: float
    distances: tuple = ()

    def to_dict(self, include_distances: bool = False) -> dict:
        ex = self.exceedance
        d = _report_fields(self, exceedance=ex.estimate, ci_low=ex.ci_low,
                           ci_high=ex.ci_high, n_samples=ex.n_samples)
        if not include_distances:
            del d["distances"]
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

    def to_dict(self, include_distances: bool = False) -> dict:
        return _report_fields(
            self, levels=[lv.to_dict(include_distances) for lv in self.levels]
        )


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

    def to_dict(self) -> dict:
        return _report_fields(self, kind="quasi_contract")


# --------------------------------------------------------------------------
# driver sampling and spec perturbations


def _sample_drivers(spec: CoefficientSpec, fbm: FbmParams, seeds: SeedSpec | list[SeedSpec]):
    """Wiener and fBm drivers on the grid of ``fbm``: one path each for a
    seed, replica blocks for a list of replica seeds.

    A single fBm channel draws from ``seed.child(1)``, channel j of several
    from ``seed.child(1).child(j)``; each channel is one ``sample_fbm`` call
    for all seeds.  Experiment blocks and ``sddelab solve`` both sample here.
    """
    each = [seeds] if isinstance(seeds, SeedSpec) else list(seeds)
    w = stack_replicas([sample_wiener(fbm.n_steps, fbm.horizon, spec.n_wiener, s.child(0))
                        for s in each])
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
    """Per-replica sup distance between two replica blocks."""
    return fraccalc._mags(x.values - y.values).max(axis=-1)


@contextmanager
def _at_levels(*labels):
    """Tag a solver explosion inside the block with the level of its row group."""
    try:
        yield
    except SolverExplosionError as exc:
        exc.level = labels[exc.group]
        raise


# --------------------------------------------------------------------------
# per-block work, one function per experiment kind (module level so the
# process pool can pickle them).  Drivers are sampled per replica, stacked
# into a replica block and solved together; each returns one row per replica.


def _block_drivers(cfg: ExperimentConfig, replicas: range, n_steps: int):
    fbm = FbmParams(cfg.params.hurst, n_steps, cfg.horizon, cfg.driver_method)
    return _sample_drivers(cfg.spec, fbm, [SeedSpec(cfg.seed, r) for r in replicas])


def _level_distances(reference: GridPath, levels) -> np.ndarray:
    """Per-replica sup distance of every level's solve to the reference solve."""
    return np.column_stack([_sup_distance(x, reference) for x in levels])


def _block_coeff(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Solutions under level-n coefficient perturbations versus the base equation."""
    w, z = _block_drivers(cfg, replicas, cfg.n_steps)
    shifted = cfg.perturbation == "initial_shift"
    specs = [_perturbed_spec(cfg.spec, cfg.perturbation, n) for n in cfg.levels]
    etas = [cfg.initial.shifted(1.0 / n) if shifted else cfg.initial for n in cfg.levels]
    with _at_levels("reference", *cfg.levels):
        reference, *levels = euler_mixed_sdde(
            [cfg.spec, *specs], [cfg.initial, *etas], w, z, cfg.solver_config
        )
    return _level_distances(reference, levels)


def _block_delay(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Pointwise-delay solutions as the tap shrinks versus the no-delay equation."""
    w, z = _block_drivers(cfg, replicas, cfg.n_steps)
    specs = [cfg.spec.merge_delay(), *(cfg.spec.with_tau(tau) for tau in cfg.levels)]
    with _at_levels("reference", *cfg.levels):
        reference, *levels = euler_mixed_sdde(specs, cfg.initial, w, z, cfg.solver_config)
    return _level_distances(reference, levels)


def _block_ito(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Mollified-drift Ito solutions versus the mixed solution as the level grows."""
    w, z = _block_drivers(cfg, replicas, cfg.n_steps)
    scfg = cfg.solver_config
    with _at_levels("reference"):
        reference = euler_mixed_sdde(cfg.spec, cfg.initial, w, z, scfg)
    with _at_levels(*cfg.levels):
        levels = euler_ito_sdde(
            cfg.spec, cfg.initial, w, z, scfg, [int(level) for level in cfg.levels]
        )
    return _level_distances(reference, levels)


def _geometric_triple(cfg: ExperimentConfig):
    """The gains (a, b, c) of a scalar pure-gain no_delay spec, else None."""
    spec = cfg.spec
    blocks = (spec.drift, spec.diffusion, spec.zdrive)
    ok = (spec.family == "no_delay" and spec.dim == spec.n_wiener == spec.n_holder == 1
          and all(not np.any(b.const) and b.time_modulation == "none" for b in blocks))
    return tuple(float(b.gain_now[0, 0, 0]) for b in blocks) if ok else None


def _block_euler(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Euler paths across dyadic meshes versus the closed form (or a 4x-finer solve)."""
    finest = int(max(cfg.levels))
    use_closed = cfg.reference == "closed_form"
    n_driver = finest if use_closed else 4 * finest
    w, z = _block_drivers(cfg, replicas, n_driver)
    x0 = float(cfg.initial.eta.values[-1, 0])
    if use_closed:
        reference = geometric_closed_form(*_geometric_triple(cfg), x0, w, z)
    else:
        fine_cfg = SolverConfig(n_steps=n_driver, horizon=cfg.horizon)
        with _at_levels("reference"):
            reference = euler_mixed_sdde(cfg.spec, cfg.initial, w, z, fine_cfg)
    out = np.empty((len(replicas), len(cfg.levels)))
    for i, level in enumerate(cfg.levels):  # one solve per mesh: the grids differ
        step = n_driver // int(level)
        scfg = SolverConfig(n_steps=int(level), horizon=cfg.horizon)
        with _at_levels(level):
            level_path = euler_mixed_sdde(
                cfg.spec, cfg.initial, w.restrict(step), z.restrict(step), scfg
            )
        out[:, i] = _sup_distance(level_path, reference.restrict(step))
    return out


def _delay_norm_t(cfg: ExperimentConfig, x: GridPath) -> np.ndarray:
    """Per replica of a solution block: the delay norm over [-r, horizon]."""
    norm_inf, norm_1 = fraccalc._delay_norm_block(x, cfg.params.alpha, cfg.initial.r, cfg.horizon)
    return norm_inf + norm_1


def _block_moments(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Per replica: the sup norm, the delay norm of the solution and the driver seminorm."""
    w, z = _block_drivers(cfg, replicas, cfg.n_steps)
    with _at_levels("reference"):
        x = euler_mixed_sdde(cfg.spec, cfg.initial, w, z, cfg.solver_config)
    return np.column_stack((
        fraccalc._mags(x.values).max(axis=1),
        _delay_norm_t(cfg, x),
        fraccalc._seminorm_block(z.values, z.dt, cfg.params.alpha),
    ))


def _block_quasi(cfg: ExperimentConfig, replicas: range) -> np.ndarray:
    """Per replica and perturbation size: p-th power distances on the truncation event."""
    w, z1 = _block_drivers(cfg, replicas, cfg.n_steps)
    scfg = cfg.solver_config
    p = _quasi_p(cfg)

    def semi(values: np.ndarray) -> np.ndarray:
        return fraccalc._seminorm_block(values, z1.dt, cfg.params.alpha)

    ramp = z1.times[:, None]
    z2s = [GridPath(z1.t0, z1.dt, z1.values + eps * ramp) for eps in cfg.levels]
    with _at_levels("reference", *cfg.levels):
        y1, *y2s = euler_mixed_sdde(cfg.spec, cfg.initial, w, [z1, *z2s], scfg)
    inside_1 = (semi(z1.values) <= cfg.m_trunc) & (_delay_norm_t(cfg, y1) <= cfg.r_trunc)
    out = np.zeros((len(replicas), len(cfg.levels), 3))
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


# Replicas per block, and stepper rows (replicas x (levels + 1)) per block, at
# most: together they bound the memory of one pool task.
_BLOCK_REPLICAS = 50
_BLOCK_ROWS = 450


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(args) -> np.ndarray:
    cfg, replicas = args
    _, fn, _ = _FLAVORS[cfg.kind]
    try:
        return fn(cfg, replicas)
    except SolverExplosionError as exc:
        # name the lowest exploding replica: solve the block's replicas alone
        for r in replicas:
            try:
                fn(cfg, range(r, r + 1))
            except SolverExplosionError as single:
                single.replica = r
                raise single from None
        exc.replica = replicas[exc.replica]
        raise


def _map_replicas(cfg: ExperimentConfig) -> np.ndarray:
    """Rows of all replicas in replica order.  The replicas are split evenly
    over the usable workers, at most ``_BLOCK_REPLICAS`` and
    ``_BLOCK_ROWS`` stepper rows per block."""
    workers = min(cfg.workers, _usable_cpus())
    size = min(_BLOCK_REPLICAS, max(1, _BLOCK_ROWS // (len(cfg.levels) + 1)),
               -(-cfg.replicas // workers))
    tasks = [(cfg, range(lo, min(lo + size, cfg.replicas))) for lo in range(0, cfg.replicas, size)]
    if workers == 1:
        return np.concatenate([_run_block(t) for t in tasks])
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return np.concatenate(list(pool.map(_run_block, tasks)))


# --------------------------------------------------------------------------
# level checks, one per experiment kind: the rules a level schedule must meet
# before any replica is solved


def _require_counts(cfg: ExperimentConfig, what: str) -> None:
    """Levels that count something (mesh steps, mollifier levels): integers >= 1."""
    if any(not float(n).is_integer() or n < 1 for n in cfg.levels):
        raise ExperimentError(
            f"levels of {cfg.kind} are {what}, integers >= 1; got {list(cfg.levels)}"
        )


def _check_coeff(cfg: ExperimentConfig) -> None:
    if any(not n > 0 for n in cfg.levels):
        raise ExperimentError(
            f"levels of coeff_convergence are perturbation indices n > 0; got {list(cfg.levels)}"
        )


def _check_delay(cfg: ExperimentConfig) -> None:
    if cfg.spec.family != "pointwise_delay":
        raise ExperimentError("vanishing delay needs a pointwise_delay spec")
    scfg = cfg.solver_config
    for tau in cfg.levels:
        try:
            _tap_steps(cfg.spec.with_tau(tau), scfg)
        except ValueError as exc:
            raise ExperimentError(
                f"levels of vanishing_delay are taps on the mesh in [0, {scfg.delay:g}], "
                f"the initial delay; got {list(cfg.levels)}: {exc}"
            ) from exc


def _check_euler(cfg: ExperimentConfig) -> None:
    _require_counts(cfg, "mesh sizes")
    levels = [int(n) for n in cfg.levels]
    finest = max(levels)
    if finest < 2:
        raise ExperimentError("levels of euler_refinement need a finest mesh of 2 or more steps")
    for n in levels:
        if finest % n != 0:
            raise ExperimentError("mesh levels must divide the finest mesh")
    if cfg.reference == "closed_form" and _geometric_triple(cfg) is None:
        raise ExperimentError(
            "closed-form reference unavailable for this spec; use reference='fine_euler'"
        )


def _check_ito(cfg: ExperimentConfig) -> None:
    _require_counts(cfg, "mollifier levels")
    dt = cfg.horizon / cfg.n_steps
    if not MollifierParams(int(max(cfg.levels))).resolves(dt):
        raise ExperimentError(
            f"mesh dt={dt} too coarse for mollifier level {max(cfg.levels)}"
        )


def _check_moments(cfg: ExperimentConfig) -> None:
    if any(not p > 0 for p in cfg.levels):
        raise ExperimentError(f"levels of moments are moment orders p > 0; got {list(cfg.levels)}")


def _check_quasi(cfg: ExperimentConfig) -> None:
    p = _quasi_p(cfg)
    if p < 4.0 / (1.0 - 2.0 * cfg.params.alpha) - 1e-12:
        raise ExperimentError(
            f"moment order p={p} below the admissible range 4/(1-2 alpha)"
        )


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
    so a median of -0.0 comes out as 0.0.  The partition puts any NaN last,
    and then the median is that NaN."""
    half = values.size // 2
    kth = [half] if values.size % 2 else [half - 1, half]
    part = np.partition(values, [*kth, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    mid = part[half] if values.size % 2 else (part[half - 1] + part[half]) / 2
    return float(0.0 + mid)


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
    alarm = share > 0.5

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
        if sup_moments[p_values.index(2.0)] < oracle - 3.0 * se:
            reasons.append(
                f"sup second moment {sup_moments[p_values.index(2.0)]:.4f} below the "
                f"terminal-moment lower bound {oracle:.4f} by more than 3 SE"
            )
    if rel_change >= 0.10:
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
    """Check the level schedule, compute the rows of all replicas, reduce them
    to the kind's report."""
    check, _, reduce = _FLAVORS[cfg.kind]
    check(cfg)
    return reduce(cfg, _map_replicas(cfg))
