"""Domain model: delay segments, coefficient families and assumption checks.

Coefficients are declarative family instances rather than opaque callables,
so that linear-growth / Lipschitz / time-Holder constants are available in
closed form and the standing assumptions can be validated numerically.

Families (all affine in the segment reads, which is what makes the constants
computable):

* ``constant``          -- value independent of psi;
* ``no_delay``          -- reads psi(0) only;
* ``linear``            -- reads psi(0) and psi(-tau);
* ``pointwise_delay``   -- same reads, tagged as the vanishing-delay family
                           f(t, x, y) with x = psi(0), y = psi(-tau);
* ``distributed_delay`` -- reads psi(0) and the uniform-kernel integral of
                           psi over [-delay_span, 0].

:meth:`CoefficientSpec.columns` lays every coefficient out as one affine map;
the solver's stepper and :func:`check_assumptions` evaluate through it.
:func:`eval_coefficient` on a :class:`Segment` is the per-segment reference
evaluator, kept for the test oracles and the benchmark tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import FieldError, GridError, GridPath, grid_steps, same_time
from .fraccalc import _mags, holder_seminorm

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

# each family's delay read: none, the tap psi(-tau), or the window integral over [-reach, 0]
DELAY_READS = {"constant": "none", "no_delay": "none", "linear": "tap",
               "pointwise_delay": "tap", "distributed_delay": "window"}
REACH = {"tap": "tau", "window": "delay_span"}  # the spec field that sets a read's reach
FAMILIES = tuple(DELAY_READS)
_MODULATIONS = ("none", "sin")


class ParamError(FieldError):
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
            raise ParamError(f"gamma must exceed 1/2; got {self.gamma}", "gamma")
        lo = 1.0 - self.gamma
        if not lo < self.alpha < 0.5:
            raise ParamError(
                f"alpha must lie in (1-gamma, 1/2) = ({lo:.3g}, 0.5); got {self.alpha}", "alpha"
            )
        if not lo < self.beta <= 1.0:
            raise ParamError(
                f"beta must lie in (1-gamma, 1] = ({lo:.3g}, 1]; got {self.beta}", "beta"
            )
        if not lo < self.theta < 0.5:
            raise ParamError(
                f"theta must lie in (1-gamma, 1/2) = ({lo:.3g}, 0.5); got {self.theta}", "theta"
            )
        if not 0.5 < self.hurst < 1.0:
            raise ParamError(f"hurst must lie in (1/2, 1); got {self.hurst}", "hurst")
        if not self.gamma < self.hurst:
            raise ParamError(
                f"gamma must be strictly below hurst; got gamma={self.gamma}, "
                f"hurst={self.hurst}", "gamma"
            )


def _as_gain(x, channels: int, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim)[None, :, :] * np.ones((channels, 1, 1))
    elif arr.shape == (dim, dim):
        arr = np.broadcast_to(arr, (channels, dim, dim)).copy()
    if arr.shape != (channels, dim, dim):
        raise ParamError(f"gain must have shape ({channels}, {dim}, {dim}), got {arr.shape}", name)
    return arr


def _as_const(x, channels: int, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full((channels, dim), float(arr))
    if arr.shape != (channels, dim):
        raise ParamError(f"const must have shape ({channels}, {dim}), got {arr.shape}", "const")
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
            raise ParamError(f"time_modulation must be one of {_MODULATIONS}", "time_modulation")

    @property
    def channels(self) -> int:
        return self.gain_now.shape[0]

    @classmethod
    def build(cls, channels, dim, gain_now=0.0, gain_delay=0.0, const=0.0, time_modulation="none"):
        return cls(
            gain_now=_as_gain(gain_now, channels, dim, "gain_now"),
            gain_delay=_as_gain(gain_delay, channels, dim, "gain_delay"),
            const=_as_const(const, channels, dim),
            time_modulation=time_modulation,
        )

    def growth_constant(self, delay_scale: float) -> float:
        """K with |block(t, psi)| <= K (1 + ||psi||_C); inf past the float range."""
        k = 0.0
        for i in range(self.channels):
            k += np.linalg.norm(self.gain_now[i], 2)
            k += delay_scale * np.linalg.norm(self.gain_delay[i], 2)
            with np.errstate(over="ignore"):
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
    distributed family.  :attr:`reach` is how far back the delay read looks:
    ``tau`` for a tap, ``delay_span`` for a window, 0 without a delay read.
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
            raise ParamError(f"unknown coefficient family {self.family!r}", "family")
        shapes = {
            "drift": (self.drift, 1),
            "diffusion": (self.diffusion, self.n_wiener),
            "zdrive": (self.zdrive, self.n_holder),
        }
        for name, (block, channels) in shapes.items():
            if block.gain_now.shape != (channels, self.dim, self.dim):
                raise ParamError(
                    f"{name} block has {block.gain_now.shape[0]} channels, "
                    f"expected {channels}", name
                )
        blocks = (self.drift, self.diffusion, self.zdrive)
        read = DELAY_READS[self.family]
        if read == "none" and any(np.any(b.gain_delay != 0.0) for b in blocks):
            raise ParamError(f"family {self.family!r} must not carry delay gains", "family")
        if self.family == "constant" and any(np.any(b.gain_now != 0.0) for b in blocks):
            raise ParamError("family 'constant' must not carry gains", "family")
        if read == "tap" and self.tau < 0:
            raise ParamError("tau must be non-negative", "tau")
        if read == "window" and not self.delay_span > 0:
            raise ParamError("distributed_delay requires a positive delay_span", "delay_span")

    @property
    def reach(self) -> float:
        """How far back the delay read looks: the read [-reach, 0] of the segment."""
        key = REACH.get(DELAY_READS[self.family])
        return 0.0 if key is None else getattr(self, key)

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

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(now, delay, const, sin_cols)``: at state x and delay read y,
        ``x @ now + y @ delay + const`` reshaped to ``(..., d, 1 + m + l)`` holds
        the columns ``[a | b_1..b_m | c_1..c_l]``; multiply those in ``sin_cols`` by sin(t)."""
        blocks = (self.drift, self.diffusion, self.zdrive)
        d, cols = self.dim, 1 + self.n_wiener + self.n_holder

        def matrix(name: str) -> np.ndarray:  # (cols, d, d) gains -> (d, d * cols)
            gains = np.concatenate([getattr(b, name) for b in blocks])
            return gains.transpose(2, 1, 0).reshape(d, d * cols)

        const = np.concatenate([b.const for b in blocks]).T.reshape(1, d * cols)
        sin_cols = np.concatenate([np.full(b.channels, b.time_modulation == "sin")
                                   for b in blocks])
        return matrix("gain_now"), matrix("gain_delay"), const, sin_cols

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
    if read == "tap":
        return psi.value_at(-spec.reach)
    span = grid_steps(spec.reach, psi.dt, what="window")
    if not 0 < span <= psi.lookback:
        raise GridError(f"window {spec.reach} does not fit a segment of {psi.lookback} steps")
    return np.trapezoid(psi.values[-span - 1:], dx=psi.dt, axis=0)


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
            raise ParamError(f"initial condition must end at time 0, ends at {self.eta.end_time}",
                             "t0")
        if not 0.0 < self.holder_theta < 1.0:
            raise ParamError("holder_theta must lie in (0, 1)", "holder_theta")

    @property
    def r(self) -> float:
        return -self.eta.t0

    def steps(self, dt: float) -> int:
        """The history length r in steps of ``dt``; r must land on that grid."""
        return grid_steps(self.r, dt, what="delay")

    def holder_constant(self) -> float:
        if self.eta.n_points < 2:
            return 0.0
        return holder_seminorm(self.eta, self.holder_theta)

    def shifted(self, offset: float) -> "InitialCondition":
        return replace(self, eta=replace(self.eta, values=self.eta.values + offset))


def constant_initial(value, r: float, dt: float) -> InitialCondition:
    """History identically equal to ``value`` on [-r, 0]."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if r == 0.0:
        return InitialCondition(GridPath(0.0, dt, vec[None, :]), 0.45)
    q = grid_steps(r, dt, what="delay horizon", field="r")
    if q < 1:
        raise GridError(f"delay horizon {r} is not a positive multiple of dt={dt}", "r")
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
    Each check evaluates all of its probes at once through
    :meth:`CoefficientSpec.columns`; its witness is the first worst probe.
    """
    if sample_budget < 0:
        raise ValueError(f"sample_budget must be non-negative, got {sample_budget}")
    rng = np.random.default_rng(seed)
    claimed = claimed or {}
    k1 = claimed.get("K", spec.growth_constant())
    k2 = claimed.get("K2", spec.zderivative_bound())
    k3 = claimed.get("K_R", spec.lipschitz_constant())
    k4 = claimed.get("K_time", spec.time_holder_constant())
    beta = claimed.get("beta", params.beta)
    slack = 1.0 + 1e-9

    # probes on [-reach, 0], so that every delay read lands on their grid:
    # deterministic scale rays first, then random rough segments
    n_seg, d, m = 32, spec.dim, spec.n_wiener
    dt = (spec.reach or 0.25) / n_seg
    psi = np.empty((4 * d + sample_budget, n_seg + 1, d))
    psi[: 4 * d] = np.multiply.outer([1.0, 10.0, 100.0, 1000.0], np.eye(d)).reshape(-1, 1, d)
    for probe in psi[4 * d :]:
        scale = 10.0 ** rng.uniform(-1, 1)
        rough = np.cumsum(rng.standard_normal((n_seg + 1, d)), axis=0)
        probe[...] = scale * rough / max(1.0, np.abs(rough).max())
    times = rng.uniform(0.0, 1.0, size=len(psi))
    sup = _mags(psi).max(axis=1)
    now, delay, const, sin_cols = spec.columns()
    back = n_seg if spec.reach else 0  # steps back of a tap or the span of a window
    window = DELAY_READS[spec.family] == "window"

    def evaluate(psi: np.ndarray, t: np.ndarray) -> np.ndarray:  # (probes, d, 1 + m + l)
        # the delay read; a family without one reads psi(0) with zero gains
        y = np.trapezoid(psi[:, -back - 1 :], dx=dt, axis=1) if window else psi[:, -1 - back]
        v = (psi[:, -1] @ now + y @ delay + const).reshape(len(psi), d, -1)
        return v * np.where(sin_cols, np.sin(t)[:, None, None], 1.0)

    def norm(v: np.ndarray) -> np.ndarray:  # one Euclidean norm per probe
        return np.linalg.norm(v.reshape(len(v), -1), axis=1)

    def result(name, ratios, claim, tol, witness, *values) -> CheckResult:
        # the first largest ratio above 0 is the worst, and a NaN ratio never is
        ratios = np.where(ratios > 0, ratios, 0.0)
        i = int(ratios.argmax())
        worst = float(ratios[i])
        found = witness.format(*(v[i] for v in values)) if worst > 0 else ""
        return CheckResult(name, worst <= claim * slack + tol, claim, worst, found)

    # linear growth in the segment sup norm
    v = evaluate(psi, times)
    a, b, c = v[..., 0], v[..., 1 : 1 + m], v[..., 1 + m :]
    growth = (norm(a) + norm(b) + norm(c)) / (1.0 + sup)

    # bounded segment derivative of c, via directional difference quotients
    eps, half = 1e-6, sample_budget // 2 + 1
    direction = rng.standard_normal(psi[:half].shape)
    direction /= np.abs(direction).max(axis=(1, 2), keepdims=True)
    bumped = evaluate(psi[:half] + eps * direction, times[:half])
    quot = norm(bumped[..., 1 + m :] - c[:half]) / eps

    # local Lipschitz continuity of (a, b) in the segment
    shift = np.empty_like(psi)
    for s in shift:  # per probe: a normal block, then its scale
        rng.standard_normal(out=s)
        s *= rng.uniform(0.01, 1.0) / max(1.0, np.abs(s).max())
    dist = _mags(shift).max(axis=1)
    moved = evaluate(psi + shift, times)
    lipschitz = (norm(moved[..., 0] - a) + norm(moved[..., 1 : 1 + m] - b)) / dist

    # time-Holder continuity of c; a pair of times closer than 1e-9 is skipped
    t1, t2 = rng.uniform(0.0, 1.0, size=(len(psi), 2)).T
    lag = np.abs(t1 - t2)
    gap = norm(evaluate(psi, t1)[..., 1 + m :] - evaluate(psi, t2)[..., 1 + m :])
    with np.errstate(divide="ignore", invalid="ignore"):
        # scalar powers: numpy's vectorised power may round differently
        denom = np.array([h ** beta for h in lag]) * (1.0 + sup)
        holder = np.where(lag < 1e-9, 0.0, gap / denom)

    checks = [
        result("linear_growth", growth, k1, 0.0, "||psi||={:.3g}, t={:.3g}", sup, times),
        result("derivative_bound", quot, k2, 1e-6, "t={:.3g}", times),
        result("local_lipschitz", lipschitz, k3, 0.0, "||psi1-psi2||={:.3g}", dist),
        result("time_holder", holder, k4, 1e-12, "t1={:.3g}, t2={:.3g}", t1, t2),
    ]

    if eta is not None:  # Holder continuity of the initial condition
        observed = eta.holder_constant()
        claim = claimed.get("K_eta", max(k1, observed))
        checks.append(CheckResult("initial_holder", observed <= claim * slack, claim, observed,
                                  f"theta={eta.holder_theta}"))
    return AssumptionReport(tuple(checks))
