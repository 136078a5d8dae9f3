"""Driving noise generation: Wiener paths and fractional Brownian motion.

fBm with Hurst index H > 1/2 is the canonical Holder-continuous driver of
order gamma for any gamma < H.  Two samplers are provided:

* ``cholesky`` (the default) -- exact sampling through the Cholesky factor
  of the fractional Gaussian noise covariance.  The covariance is Toeplitz,
  so the generalized Schur algorithm gives the factor in O(n^2) elementwise
  work; only its lower triangle is stored, in row panels.  LAPACK's dense
  factorization is the test oracle.  Replicas are drawn in fixed-width
  chunks of stream indices: one matrix product per panel and chunk reads
  the factor once for up to ``_CHUNK`` replicas;
* ``davies_harte`` -- circulant embedding, O(n log n), for large grids.

``sample_fbm`` takes one seed (a path) or a list of seeds (a replica block,
in list order).  Sampling is a pure function of ``(params, seed)``: a path
has the same bits alone and in any block, and at 1, 2 and 4 OpenBLAS
threads (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import GridPath, SeedSpec

__all__ = [
    "FbmParams",
    "DriverNumericsError",
    "fbm_covariance",
    "sample_fbm",
    "sample_wiener",
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


# Rows of the Cholesky factor per stored panel; rows of normals per product
# (stream index i is row i % _CHUNK of chunk i // _CHUNK); and the unit the
# factor's size is rounded up to for sampling.
_PANEL = 512
_CHUNK = 25
_PAD = 64


def _schur_panels(cov: np.ndarray) -> list[np.ndarray]:
    """Lower Cholesky factor L of the Toeplitz matrix with first column ``cov``.

    Generalized Schur algorithm (Kailath & Sayed, 1999): the generator pair
    (a, b) starts at ``cov / sqrt(cov[0])`` with ``b[0] = 0``; column k of L
    is a, and one hyperbolic rotation zeroes the head of the shifted b for
    the next column.  The rotation is only weakly stable (Bojanczyk, Brent,
    de Hoog & Sweet, 1995); the test against LAPACK states the tolerance.

    Panel i holds ``L[e_i:e_{i+1}, :e_{i+1}]`` with ``e_i = i * _PANEL``, in
    column order, so each Schur column is one contiguous write per panel and
    the zero upper triangle is stored only inside the diagonal blocks.  All
    panels are views of one buffer: a grid too large for memory fails at its
    allocation, before any work.
    """
    n = cov.size
    edges = [*range(0, n, _PANEL), n]
    shapes = [(e1 - e0, e1) for e0, e1 in zip(edges, edges[1:])]
    offsets = np.cumsum([0] + [rows * cols for rows, cols in shapes])
    buf = np.zeros(offsets[-1])
    panels = [buf[o : o + rows * cols].reshape((rows, cols), order="F")
              for o, (rows, cols) in zip(offsets, shapes)]
    a = cov / np.sqrt(cov[0])
    b = a.copy()
    b[0] = 0.0
    for k in range(n):
        if k:
            a, b = a[:-1], b[1:]
            rho = b[0] / a[0]
            if not abs(rho) < 1.0:
                raise DriverNumericsError(
                    f"the covariance is not positive definite: Schur "
                    f"reflection coefficient {rho} at column {k}"
                )
            s = 1.0 / np.sqrt((1.0 - rho) * (1.0 + rho))
            a, b = s * (a - rho * b), s * (b - rho * a)
        for i in range(k // _PANEL, len(panels)):
            lo = max(k, edges[i])
            panels[i][lo - edges[i] :, k] = a[lo - k : edges[i + 1] - k]
    if not np.isfinite(buf).all():
        raise DriverNumericsError("the Schur recursion produced non-finite entries")
    return panels


@lru_cache(maxsize=8)
def _cholesky_factor(n: int, hurst: float) -> list[np.ndarray]:
    """Panels of the factor for n steps rounded up to ``_PAD``; its leading
    n x n block is the factor for n, bit for bit (the recursion is
    elementwise)."""
    try:
        return _schur_panels(_fgn_autocov(-(-n // _PAD) * _PAD, hurst))
    except DriverNumericsError as exc:
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


def _cholesky_fgn(n: int, hurst: float, seeds: list[SeedSpec]) -> np.ndarray:
    """Unit-step fGn ``L g``, one row per seed, by products of fixed shapes.

    Each seed draws its ``standard_normal(n)`` into row ``stream_index %
    _CHUNK`` of its chunk: the seeds of one master seed and sub-stream whose
    stream indices share ``stream_index // _CHUNK``.  Rows with no seed stay
    zero, and every product is ``(_CHUNK, e) @ panel.T``: BLAS rounds a
    product of a few rows differently from a wide one, so a fixed shape and
    row keep a row's bits independent of the other seeds of the call.  The
    factor is padded to a multiple of ``_PAD`` steps, and the zero tail of
    ``g`` adds exact zeros: OpenBLAS splits a product over threads in a way
    that changes its bits unless both sizes of every panel are multiples of
    32 (measured with OpenBLAS 0.3.31, Haswell kernels, at 1, 2 and 4
    threads).
    """
    panels = _cholesky_factor(n, hurst)
    width = panels[-1].shape[1]
    chunks: dict[SeedSpec, np.ndarray] = {}  # keyed by the seed of row 0
    slots = []
    for seed in seeds:
        row = seed.stream_index % _CHUNK
        key = replace(seed, stream_index=seed.stream_index - row)
        g = chunks.setdefault(key, np.zeros((_CHUNK, width)))
        g[row, :n] = seed.generator().standard_normal(n)
        slots.append((key, row))
    fgn = {key: np.concatenate([g[:, : p.shape[1]] @ p.T for p in panels], axis=1)
           for key, g in chunks.items()}
    return np.stack([fgn[key][row, :n] for key, row in slots])


def sample_fbm(params: FbmParams, seed: SeedSpec | list[SeedSpec]) -> GridPath:
    """Scalar fBm on ``{0, dt, ..., horizon}`` starting at 0: one path for a
    seed, a replica block in list order for a list of seeds."""
    seeds = [seed] if isinstance(seed, SeedSpec) else list(seed)
    if not seeds:
        raise ValueError("need at least one seed")
    n = params.n_steps
    if params.method == "cholesky":
        fgn = _cholesky_fgn(n, params.hurst, seeds)
    else:
        fgn = np.stack([_fgn_davies_harte(n, params.hurst, s.generator()) for s in seeds])
    values = np.zeros((len(seeds), n + 1))
    np.cumsum(fgn * params.dt**params.hurst, axis=1, out=values[:, 1:])
    return GridPath(0.0, params.dt, values[0] if isinstance(seed, SeedSpec) else values[..., None])


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
