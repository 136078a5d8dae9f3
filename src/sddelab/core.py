"""Domain model: delay segments, coefficient families and assumption checks.

Coefficients are declarative family instances rather than opaque callables,
so that linear-growth / Lipschitz / time-Holder constants are available in
closed form and the standing assumptions can be validated numerically.

Families (all affine in the segment reads, which is what makes the constants
computable):

* ``constant``          -- value independent of (t, psi);
* ``no_delay``          -- reads psi(0) only;
* ``linear``            -- reads psi(0) and psi(-tau);
* ``pointwise_delay``   -- same reads, tagged as the vanishing-delay family
                           f(t, x, y) with x = psi(0), y = psi(-tau);
* ``distributed_delay`` -- reads psi(0) and the uniform-kernel integral of
                           psi over [-r, 0].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridError, GridPath, grid_steps, same_time
from .fraccalc import _mags, holder_seminorm_values

__all__ = [
    "HolderParams",
    "ParamError",
    "CoeffBlock",
    "CoefficientSpec",
    "InitialCondition",
    "Segment",
    "segment_at",
    "eval_coefficient",
    "check_assumptions",
    "AssumptionReport",
    "CheckResult",
    "geometric_spec",
    "pointwise_delay_spec",
    "constant_initial",
]

# each family's delay read: none, the tap psi(-tau), or the window integral over [-r, 0]
DELAY_READS = {"constant": "none", "no_delay": "none", "linear": "tap",
               "pointwise_delay": "tap", "distributed_delay": "window"}
FAMILIES = tuple(DELAY_READS)
_MODULATIONS = ("none", "sin")


class ParamError(ValueError):
    """An exponent bundle or coefficient spec violates an admissibility rule."""


@dataclass(frozen=True)
class HolderParams:
    """The exponent bundle (gamma, alpha, beta, theta, H) with its admissibility rules.

    gamma: Holder order of the rough driver Z;  alpha: order of the fractional
    norms; beta: time-Holder order of the z-coefficient; theta: Holder order
    of the initial condition; hurst: Hurst index of the fBm realizing Z.
    """

    gamma: float
    alpha: float
    theta: float
    hurst: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not self.gamma > 0.5:
            raise ParamError(f"gamma must exceed 1/2; got {self.gamma}")
        lo = 1.0 - self.gamma
        if not lo < self.alpha < 0.5:
            raise ParamError(
                f"alpha must lie in (1-gamma, 1/2) = ({lo:.3g}, 0.5); got {self.alpha}"
            )
        if not lo < self.beta <= 1.0:
            raise ParamError(
                f"beta must lie in (1-gamma, 1] = ({lo:.3g}, 1]; got {self.beta}"
            )
        if not lo < self.theta < 0.5:
            raise ParamError(
                f"theta must lie in (1-gamma, 1/2) = ({lo:.3g}, 0.5); got {self.theta}"
            )
        if not 0.5 < self.hurst < 1.0:
            raise ParamError(f"hurst must lie in (1/2, 1); got {self.hurst}")
        if not self.gamma < self.hurst:
            raise ParamError(
                f"gamma must be strictly below hurst; got gamma={self.gamma}, "
                f"hurst={self.hurst}"
            )


def _as_gain(x, channels: int, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim)[None, :, :] * np.ones((channels, 1, 1))
    elif arr.ndim == 2:
        arr = np.broadcast_to(arr, (channels, dim, dim)).copy()
    if arr.shape != (channels, dim, dim):
        raise ParamError(f"gain must have shape ({channels}, {dim}, {dim}), got {arr.shape}")
    return arr


def _as_const(x, channels: int, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full((channels, dim), float(arr))
    if arr.shape != (channels, dim):
        raise ParamError(f"const must have shape ({channels}, {dim}), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class CoeffBlock:
    """One affine coefficient: channels x (gain at psi(0), gain at the delay read, const)."""

    gain_now: np.ndarray
    gain_delay: np.ndarray
    const: np.ndarray
    time_modulation: str = "none"

    def __post_init__(self) -> None:
        if self.time_modulation not in _MODULATIONS:
            raise ParamError(f"time_modulation must be one of {_MODULATIONS}")

    @property
    def channels(self) -> int:
        return self.gain_now.shape[0]

    @classmethod
    def build(cls, channels, dim, gain_now=0.0, gain_delay=0.0, const=0.0, time_modulation="none"):
        return cls(
            gain_now=_as_gain(gain_now, channels, dim),
            gain_delay=_as_gain(gain_delay, channels, dim),
            const=_as_const(const, channels, dim),
            time_modulation=time_modulation,
        )

    def growth_constant(self, delay_scale: float) -> float:
        """K with |block(t, psi)| <= K (1 + ||psi||_C)."""
        k = 0.0
        for i in range(self.channels):
            k += np.linalg.norm(self.gain_now[i], 2)
            k += delay_scale * np.linalg.norm(self.gain_delay[i], 2)
            k += float(np.linalg.norm(self.const[i]))
        return k

    def lipschitz_constant(self, delay_scale: float) -> float:
        k = 0.0
        for i in range(self.channels):
            k += np.linalg.norm(self.gain_now[i], 2)
            k += delay_scale * np.linalg.norm(self.gain_delay[i], 2)
        return k

    def modulation(self, t: float) -> float:
        return np.sin(t) if self.time_modulation == "sin" else 1.0


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Declarative (a, b, c) triple for one mixed SDDE.

    ``dim`` is the state dimension, ``n_wiener``/``n_holder`` the number of
    Wiener / rough driver channels, ``tau`` the delay tap (0 means the
    coefficients never look back), ``delay_span`` the kernel support of the
    distributed family.
    """

    family: str
    dim: int
    n_wiener: int
    n_holder: int
    drift: CoeffBlock
    diffusion: CoeffBlock
    zdrive: CoeffBlock
    tau: float = 0.0
    delay_span: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParamError(f"unknown coefficient family {self.family!r}")
        shapes = {
            "drift": (self.drift, 1),
            "diffusion": (self.diffusion, self.n_wiener),
            "zdrive": (self.zdrive, self.n_holder),
        }
        for name, (block, channels) in shapes.items():
            if block.gain_now.shape != (channels, self.dim, self.dim):
                raise ParamError(
                    f"{name} block has {block.gain_now.shape[0]} channels, "
                    f"expected {channels}"
                )
        uses_delay = any(
            np.any(b.gain_delay != 0.0) for b in (self.drift, self.diffusion, self.zdrive)
        )
        read = DELAY_READS[self.family]
        if read == "none" and uses_delay:
            raise ParamError(f"family {self.family!r} must not carry delay gains")
        if read == "tap" and self.tau < 0:
            raise ParamError("tau must be non-negative")
        if read == "window" and not self.delay_span > 0:
            raise ParamError("distributed_delay requires a positive delay_span")

    @property
    def _delay_scale(self) -> float:
        return self.delay_span if DELAY_READS[self.family] == "window" else 1.0

    def growth_constant(self) -> float:
        """Closed-form K for the linear-growth bound on |a| + |b| + |c|."""
        return sum(
            b.growth_constant(self._delay_scale)
            for b in (self.drift, self.diffusion, self.zdrive)
        )

    def lipschitz_constant(self) -> float:
        """Closed-form Lipschitz constant of (a, b) and of the derivative of c."""
        return sum(
            b.lipschitz_constant(self._delay_scale)
            for b in (self.drift, self.diffusion, self.zdrive)
        )

    def zderivative_bound(self) -> float:
        """Closed-form bound on the segment derivative of the z-coefficient."""
        return self.zdrive.lipschitz_constant(self._delay_scale)

    def time_holder_constant(self) -> float:
        """K with |c(t1,.) - c(t2,.)| <= K |t1-t2|^beta (1+||psi||), beta = 1."""
        if self.zdrive.time_modulation == "none":
            return 0.0
        return self.zdrive.growth_constant(self._delay_scale)

    def with_tau(self, tau: float) -> "CoefficientSpec":
        return replace(self, tau=tau)

    def merge_delay(self) -> "CoefficientSpec":
        """The zero-delay limit: every delay gain folded onto the psi(0) gain.

        This is the coefficient map (t, x) -> f(t, x, x) of the vanishing
        delay study.
        """
        def fold(block: CoeffBlock) -> CoeffBlock:
            return replace(block, gain_now=block.gain_now + block.gain_delay,
                           gain_delay=np.zeros_like(block.gain_delay))

        return replace(self, family="no_delay", drift=fold(self.drift),
                       diffusion=fold(self.diffusion), zdrive=fold(self.zdrive),
                       tau=0.0, delay_span=0.0)


@dataclass(frozen=True, eq=False)
class Segment:
    """The memory window psi(u) = xi(t + u), u in [-r, 0], as a view on a path."""

    path: GridPath
    anchor: int
    lookback: int  # r in grid steps

    @property
    def dt(self) -> float:
        return self.path.dt

    @property
    def r(self) -> float:
        return self.lookback * self.path.dt

    @property
    def values(self) -> np.ndarray:
        return self.path.values[self.anchor - self.lookback : self.anchor + 1]

    def value_at(self, u: float) -> np.ndarray:
        k = grid_steps(u, self.path.dt, what="segment argument")
        if not -self.lookback <= k <= 0:
            raise GridError(f"segment argument {u} outside [-{self.r}, 0]")
        return self.path.values[self.anchor + k]

    def sup_norm(self) -> float:
        return float(_mags(self.values).max())


def segment_at(path: GridPath, t: float, r: float) -> Segment:
    """Extract the segment anchored at grid time t with grid-aligned delay r."""
    anchor = path.index_of(t)
    q = grid_steps(r, path.dt, what="delay horizon")
    if q < 0 or anchor - q < 0:
        raise GridError(f"path does not cover [{t - r}, {t}]")
    return Segment(path=path, anchor=anchor, lookback=q)


def _delay_read(spec: CoefficientSpec, psi: Segment) -> np.ndarray:
    read = DELAY_READS[spec.family]
    if read == "none":
        return np.zeros(spec.dim)
    if read == "window":
        if psi.lookback == 0:
            raise GridError("distributed_delay needs a non-trivial segment window")
        return np.trapezoid(psi.values, dx=psi.dt, axis=0)
    return psi.value_at(-spec.tau)


def eval_coefficient(spec: CoefficientSpec, which: str, t: float, psi: Segment):
    """Evaluate coefficient 'a', 'b' or 'c' at (t, psi).

    Returns shape (d,) for 'a', (d, m) for 'b', (d, l) for 'c'.
    """
    block = {"a": spec.drift, "b": spec.diffusion, "c": spec.zdrive}.get(which)
    if block is None:
        raise ValueError(f"which must be 'a', 'b' or 'c', got {which!r}")
    x_now = psi.value_at(0.0)
    if x_now.shape[0] != spec.dim:
        raise GridError(f"segment dimension {x_now.shape[0]} != spec dim {spec.dim}")
    x_del = _delay_read(spec, psi)
    out = block.gain_now @ x_now + block.gain_delay @ x_del + block.const
    out = out * block.modulation(t)
    return out[0] if which == "a" else out.T


def geometric_spec(a: float, b: float, c: float) -> CoefficientSpec:
    """Scalar linear multiplicative spec: drift a*x, diffusion b*x, z-drive c*x."""
    return CoefficientSpec(
        family="no_delay", dim=1, n_wiener=1, n_holder=1,
        drift=CoeffBlock.build(1, 1, gain_now=a),
        diffusion=CoeffBlock.build(1, 1, gain_now=b),
        zdrive=CoeffBlock.build(1, 1, gain_now=c),
    )


def pointwise_delay_spec(
    a_now: float, a_del: float, b_now: float, b_del: float,
    c_now: float, c_del: float, tau: float,
) -> CoefficientSpec:
    """Scalar vanishing-delay family f(t, x, y) with affine reads of x and y."""
    return CoefficientSpec(
        family="pointwise_delay", dim=1, n_wiener=1, n_holder=1,
        drift=CoeffBlock.build(1, 1, gain_now=a_now, gain_delay=a_del),
        diffusion=CoeffBlock.build(1, 1, gain_now=b_now, gain_delay=b_del),
        zdrive=CoeffBlock.build(1, 1, gain_now=c_now, gain_delay=c_del),
        tau=tau,
    )


@dataclass(frozen=True, eq=False)
class InitialCondition:
    """Deterministic history eta on [-r, 0] plus its claimed Holder order."""

    eta: GridPath
    holder_theta: float

    def __post_init__(self) -> None:
        if not same_time(self.eta.end_time, 0.0):
            raise ParamError(f"initial condition must end at time 0, ends at {self.eta.end_time}")
        if not 0.0 < self.holder_theta < 1.0:
            raise ParamError("holder_theta must lie in (0, 1)")

    @property
    def r(self) -> float:
        return -self.eta.t0

    def holder_constant(self) -> float:
        if self.eta.n_points < 2:
            return 0.0
        return holder_seminorm_values(self.eta.values, self.eta.dt, self.holder_theta)

    def shifted(self, offset: float) -> "InitialCondition":
        return replace(self, eta=replace(self.eta, values=self.eta.values + offset))


def constant_initial(value, r: float, dt: float) -> InitialCondition:
    """History identically equal to ``value`` on [-r, 0]."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if r == 0.0:
        return InitialCondition(GridPath(0.0, dt, vec[None, :]), 0.45)
    q = grid_steps(r, dt, what="delay horizon")
    if q < 1:
        raise GridError(f"delay horizon {r} is not a positive multiple of dt={dt}")
    return InitialCondition(GridPath(-r, dt, np.tile(vec, (q + 1, 1))), 0.45)


# --------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    claimed: float
    observed: float
    witness: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _total_magnitude(spec: CoefficientSpec, t: float, psi: Segment) -> float:
    a = eval_coefficient(spec, "a", t, psi)
    b = eval_coefficient(spec, "b", t, psi)
    c = eval_coefficient(spec, "c", t, psi)
    return float(np.linalg.norm(a) + np.linalg.norm(b) + np.linalg.norm(c))


def _probe_segments(spec: CoefficientSpec, rng, budget: int, n_seg: int):
    """Deterministic scale rays first, then random rough segments."""
    r = max(spec.tau, spec.delay_span, 0.25)
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


def check_assumptions(
    spec: CoefficientSpec,
    params: HolderParams,
    sample_budget: int = 200,
    claimed: dict[str, float] | None = None,
    eta: InitialCondition | None = None,
    seed: int = 0,
) -> AssumptionReport:
    """Falsification sweep for the standing assumptions on the coefficients.

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
