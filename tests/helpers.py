"""Shared helpers for the test suite."""

from types import SimpleNamespace

import numpy as np

from sddelab import GridPath, HolderParams
from sddelab.core import Segment, eval_coefficient
from sddelab.grid import GridError
from sddelab.solver import (
    MollifierParams,
    SolverExplosionError,
    _align_driver,
    _clamp,
    _history_values,
    _interpolate,
)


def grid_fn(fn, a: float, b: float, n: int) -> GridPath:
    """Sample a callable on the uniform grid over [a, b] with n cells."""
    t = np.linspace(a, b, n + 1)
    return GridPath(a, (b - a) / n, fn(t))


def standard_params(alpha: float = 0.35) -> HolderParams:
    """Exponent bundle used throughout the suite (fBm with H = 3/4)."""
    return HolderParams(gamma=0.7, alpha=alpha, theta=0.45, hurst=0.75, beta=1.0)


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

    The derivative of the mollified driver is
    ``N (clamp_N Z(t) - clamp_N Z(max(t - 1/N, 0)))``.
    """

    def __init__(self, spec, Z: GridPath, level: int):
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

    def __call__(self, t: float, psi) -> np.ndarray:
        a = eval_coefficient(self.spec, "a", t, psi)
        c = eval_coefficient(self.spec, "c", t, psi)
        return a + (c * self.zdot(t)).sum(axis=-1)


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
    n, q, dt = cfg.n_steps, cfg.delay_steps, cfg.dt
    hist = _history_values(theta, cfg)
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
    return GridPath(-cfg.delay, dt, buf)


def mollified_ito_oracle(spec, eta, w: GridPath, z: GridPath, cfg, level: int) -> GridPath:
    """The mollified Ito equation of ``spec`` at ``level``, solved by
    :func:`callable_ito` with the driver guarded."""
    drift = GuardedMollifiedDrift(spec, z, level)
    return callable_ito(drift, coefficient(spec, "b"), eta, w, cfg, guarded=(drift.guard,))
