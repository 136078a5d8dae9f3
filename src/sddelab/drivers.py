"""Driving noise generation: Wiener paths and fractional Brownian motion.

fBm with Hurst index H > 1/2 is the canonical Holder-continuous driver of
order gamma for any gamma < H.  Two samplers are provided:

* ``cholesky`` -- exact sampling through a Cholesky factor of the fractional
  Gaussian noise covariance (default for n <= 4096, used as the test oracle);
* ``davies_harte`` -- circulant embedding, O(n log n), for large grids.

Sampling is a pure function of ``(params, seed)``; repeated calls give
bit-identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fraccalc import holder_seminorm_values
from .grid import GridError, GridPath, SeedSpec

__all__ = [
    "FbmParams",
    "DriverNumericsError",
    "fbm_covariance",
    "sample_fbm",
    "sample_wiener",
    "holder_seminorm",
    "GridPath",
    "SeedSpec",
]

_METHODS = ("cholesky", "davies_harte")


class DriverNumericsError(RuntimeError):
    """Covariance factorization failed (round-off broke positive definiteness)."""


@dataclass(frozen=True)
class FbmParams:
    """Grid and law of one scalar fBm path on [0, horizon].

    ``hurst`` is restricted to (1/2, 1): the lab only targets drivers whose
    trajectories are Holder continuous of some order above 1/2.
    """

    hurst: float
    n_steps: int
    horizon: float
    method: str = "cholesky"

    def __post_init__(self) -> None:
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie strictly in (0.5, 1.0), got {self.hurst}")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance of fBm: ``(s^2H + t^2H - |t-s|^2H) / 2``."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if s < 0 or t < 0:
        raise ValueError("fBm covariance is defined for non-negative times")
    h2 = 2.0 * hurst
    return 0.5 * (s**h2 + t**h2 - abs(t - s) ** h2)


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-step fractional Gaussian noise at lags 0..n-1."""
    k = np.arange(n, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


@lru_cache(maxsize=8)
def _cholesky_factor(n: int, hurst: float) -> np.ndarray:
    cov = _fgn_autocov(n, hurst)
    idx = np.arange(n)
    sigma = cov[np.abs(idx[:, None] - idx[None, :])]
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise DriverNumericsError(
            f"Cholesky factorization of the fGn covariance failed for n={n}, "
            f"H={hurst}: {exc}"
        ) from exc


@lru_cache(maxsize=8)
def _circulant_sqrt_eigs(n: int, hurst: float) -> np.ndarray:
    cov = _fgn_autocov(n + 1, hurst)
    row = np.concatenate([cov, cov[-2:0:-1]])
    eigs = np.fft.fft(row).real
    if eigs.min() < -1e-8 * eigs.max():
        raise DriverNumericsError(
            f"circulant embedding has negative eigenvalue {eigs.min():.3e} "
            f"for n={n}, H={hurst}"
        )
    return np.sqrt(np.clip(eigs, 0.0, None))


def _fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    # Dieker's formulation; the rng draw order below is part of the
    # determinism contract and must not change.
    sq = _circulant_sqrt_eigs(n, hurst)
    m = 2 * n
    v = np.zeros(m, dtype=complex)
    v[0] = rng.standard_normal()
    v[n] = rng.standard_normal()
    xi = rng.standard_normal(n - 1)
    zeta = rng.standard_normal(n - 1)
    v[1:n] = (xi + 1j * zeta) / np.sqrt(2.0)
    v[n + 1 :] = np.conj(v[n - 1 : 0 : -1])
    return np.sqrt(m) * np.fft.ifft(sq * v).real[:n]


def sample_fbm(params: FbmParams, seed: SeedSpec) -> GridPath:
    """One scalar fBm path on ``{0, dt, ..., horizon}`` starting at 0."""
    rng = seed.generator()
    n = params.n_steps
    if params.method == "cholesky":
        factor = _cholesky_factor(n, params.hurst)
        fgn = factor @ rng.standard_normal(n)
    else:
        fgn = _fgn_davies_harte(n, params.hurst, rng)
    fgn = fgn * params.dt**params.hurst
    values = np.concatenate([[0.0], np.cumsum(fgn)])
    return GridPath(0.0, params.dt, values)


def sample_wiener(n_steps: int, horizon: float, dim: int, seed: SeedSpec) -> GridPath:
    """Standard Wiener path in R^dim on ``{0, dt, ..., horizon}``."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    dt = horizon / n_steps
    rng = seed.generator()
    increments = rng.standard_normal((n_steps, dim)) * np.sqrt(dt)
    values = np.vstack([np.zeros((1, dim)), np.cumsum(increments, axis=0)])
    return GridPath(0.0, dt, values)


def holder_seminorm(
    path: GridPath, lam: float, window: tuple[float, float] | None = None
) -> float:
    """Grid Holder seminorm: ``max over x < y of |f(y)-f(x)| / (y-x)^lam``.

    Vector paths use the Euclidean norm of the difference.  The supremum runs
    over grid pairs only; refinement studies quantify the proxy error.
    """
    p = path.window(*window) if window is not None else path
    if p.n_points < 2:
        raise GridError("need at least two grid points in the window")
    return holder_seminorm_values(p.values, p.dt, lam)
