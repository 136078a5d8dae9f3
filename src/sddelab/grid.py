"""Uniform-grid sample paths: the carrier type shared by every module.

A :class:`GridPath` holds a d-dimensional path sampled on the uniform grid
``t0 + k*dt`` for ``k = 0..n-1``.  Times are never stored; they are always
recomputed from ``(t0, dt, k)`` so that grid alignment checks are exact.
It also owns the alignment rule every module asks: :func:`same_time`,
:func:`grid_steps` and :func:`refinement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridPath", "SeedSpec", "GridError", "grid_steps", "refinement", "same_time",
           "stack_paths", "stack_replicas"]

# Relative slack for "does this time land on a grid node" checks.
_ALIGN_RTOL = 1e-9


class GridError(ValueError):
    """Raised for misaligned times, mismatched grids or malformed paths."""


def same_time(s: float, t: float) -> bool:
    """Whether the time ``s`` agrees with the time ``t``, to within
    ``1e-9 * max(1, |t|)``.  A NaN agrees with nothing."""
    return abs(s - t) <= _ALIGN_RTOL * max(1.0, abs(t))


def grid_steps(t: float, dt: float, t0: float = 0.0, what: str = "time") -> int:
    """The k with ``t0 + k*dt`` agreeing with ``t`` (:func:`same_time`);
    k may be zero or negative.  A time off the grid raises :class:`GridError`
    naming it as ``what``."""
    pos = (t - t0) / dt
    k = round(pos) if math.isfinite(pos) else None
    if k is None or not same_time(t0 + k * dt, t):
        raise GridError(f"{what} {t} does not land on the grid (dt={dt})")
    return k


def refinement(coarse: float, fine: float, what: str = "grid") -> int:
    """The ratio r >= 1 with ``r * fine`` equal to the step ``coarse`` to
    within ``1e-9 * coarse``; otherwise :class:`GridError` naming ``what``."""
    r = round(coarse / fine)
    if r < 1 or not abs(r * fine - coarse) <= _ALIGN_RTOL * coarse:
        raise GridError(f"{what} (dt={fine}) is not a refinement of the step {coarse}")
    return r


@dataclass(frozen=True, eq=False)
class GridPath:
    """A d-dimensional path on the uniform grid ``{t0 + k*dt, k=0..n-1}``.

    ``values`` has shape ``(n, d)``; scalar paths are stored with ``d = 1``.
    A replica block stacks paths on one grid as ``(replicas, n, d)``; the
    grid operations act on the time axis of every replica alike.  The values
    are read-only, so paths can share memory: a float array is kept as given
    when it and every array it views are read-only, and copied otherwise (a
    read-only view of a writable array changes when that array is written).
    So :meth:`restrict` and :meth:`window` return views, and the solver's
    paths are views of its buffer, which the caller then keeps alive whole.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim not in (2, 3) or arr.shape[-2] == 0:
            raise GridError("values must be a non-empty (n,), (n, d) or (reps, n, d) array")
        if not np.all(np.isfinite(arr)):
            raise GridError("path values must be finite")
        if not self.dt > 0:
            raise GridError(f"dt must be positive, got {self.dt}")
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:  # a writable array, or memory that is not an array's, under arr
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def n_points(self) -> int:
        return self.values.shape[-2]

    @property
    def replicas(self) -> int | None:
        """Block size of a replica block; None for a single path."""
        return self.values.shape[0] if self.values.ndim == 3 else None

    @property
    def end_time(self) -> float:
        return self.t0 + (self.n_points - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_points)

    def scalar_values(self) -> np.ndarray:
        """The (n,) value array of a one-dimensional path ((replicas, n) for a block)."""
        if self.dim != 1:
            raise GridError(f"expected a scalar path, got dim={self.dim}")
        return self.values[..., 0]

    def index_of(self, t: float) -> int:
        """Exact grid index of time ``t``; rejects off-grid times."""
        k = grid_steps(t, self.dt, self.t0)
        if k < 0 or k >= self.n_points:
            raise GridError(f"time {t} outside [{self.t0}, {self.end_time}]")
        return k

    def restrict(self, step: int) -> "GridPath":
        """Keep every ``step``-th node; the coupling device for dyadic grids."""
        if step < 1 or (self.n_points - 1) % step != 0:
            raise GridError(
                f"cannot restrict {self.n_points} points by step {step}: end node lost"
            )
        return GridPath(self.t0, self.dt * step, self.values[..., ::step, :])

    def window(self, a: float, b: float) -> "GridPath":
        """Sub-path on the grid-aligned interval ``[a, b]``."""
        ia, ib = self.index_of(a), self.index_of(b)
        if ib <= ia:
            raise GridError(f"empty window [{a}, {b}]")
        return GridPath(self.t0 + ia * self.dt, self.dt, self.values[..., ia : ib + 1, :])

    def same_grid(self, other: "GridPath") -> bool:
        return (
            self.n_points == other.n_points
            and same_time(other.t0, self.t0)
            and abs(self.dt - other.dt) <= _ALIGN_RTOL * self.dt
        )


def _common_grid(paths: list[GridPath]) -> GridPath:
    if not paths:
        raise GridError("need at least one path")
    head = paths[0]
    for p in paths[1:]:
        if not head.same_grid(p):
            raise GridError("paths are not on a common grid")
    return head


def stack_paths(paths: list[GridPath]) -> GridPath:
    """Stack scalar paths (or replica blocks) on a common grid into one
    vector-valued path (or block), one coordinate per path."""
    head = _common_grid(paths)
    return GridPath(head.t0, head.dt, np.stack([p.scalar_values() for p in paths], axis=-1))


def stack_replicas(paths: list[GridPath]) -> GridPath:
    """Stack paths on a common grid into a replica block, in list order."""
    head = _common_grid(paths)
    return GridPath(head.t0, head.dt, np.stack([p.values for p in paths]))


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic RNG address: (master seed, Monte Carlo stream index).

    The pair maps to a path through :func:`numpy.random.SeedSequence`, so the
    same spec always yields bit-identical output.  ``child`` derives
    independent sub-streams (e.g. one for W, one for Z within a replica).
    """

    master_seed: int
    stream_index: int = 0
    _subkeys: tuple = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def child(self, key: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_index, self._subkeys + (key,))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed),
            spawn_key=(int(self.stream_index),) + tuple(self._subkeys),
        )
        return np.random.default_rng(seq)
