"""Core value types for extended 3D latents.

The scene lives on two aligned lattices: a coarse structure lattice of
shape (a*N, b*N, N, C) holding real-valued features, and a fine grid of
shape (a*M, b*M, M) holding occupancy / per-voxel feature vectors.  The
extension factors a and b widen the base model's cubic latent along x
and y so one fixed-size backbone can cover a wide scene patch by patch.

All value types are immutable after construction (array buffers are
marked read-only); operations return new values.  Lattice data is stored
as float32; reductions elsewhere accumulate in float64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundsError, DimensionError

DTYPE = np.float32


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dims:
    """Lattice geometry: extension factors and base side lengths.

    a, b: extension factors along x and y.
    N:    side of the coarse structure lattice.
    M:    side of the fine occupancy grid; must be a multiple of N.
    C:    channel count of the coarse lattice.
    l:    feature width of per-voxel sparse features.
    """

    a: int = 2
    b: int = 2
    N: int = 8
    M: int = 32
    C: int = 1
    l: int = 4

    def __post_init__(self):
        for name in ("a", "b", "N", "M", "C", "l"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise DimensionError(f"Dims.{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.M % self.N != 0:
            raise DimensionError(f"M={self.M} must be an integer multiple of N={self.N}")

    @property
    def ratio(self) -> int:
        """Fine cells per coarse cell along each axis (M // N)."""
        return self.M // self.N

    @property
    def dense_shape(self) -> tuple[int, int, int, int]:
        return (self.a * self.N, self.b * self.N, self.N, self.C)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return (self.a * self.M, self.b * self.M, self.M)

    def patch_dims(self) -> "Dims":
        """Dims of a single unextended patch (a = b = 1, same sides)."""
        return Dims(1, 1, self.N, self.M, self.C, self.l)


@dataclass(frozen=True)
class DenseLatent:
    """Real-valued lattice of shape (a*N, b*N, N, C); finite entries only."""

    dims: Dims
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=DTYPE)
        if data.shape != self.dims.dense_shape:
            raise DimensionError(
                f"dense latent shape {data.shape} != expected {self.dims.dense_shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("dense latent contains non-finite entries")
        object.__setattr__(self, "data", _freeze(data))

    @classmethod
    def zeros(cls, dims: Dims) -> "DenseLatent":
        return cls(dims, np.zeros(dims.dense_shape, dtype=DTYPE))

    @classmethod
    def full(cls, dims: Dims, value: float) -> "DenseLatent":
        return cls(dims, np.full(dims.dense_shape, value, dtype=DTYPE))

    def with_data(self, data: np.ndarray) -> "DenseLatent":
        return DenseLatent(self.dims, data)

    @property
    def values(self) -> np.ndarray:
        return self.data

    with_values = with_data


def checked_coords(dims: Dims, coords) -> tuple[np.ndarray, np.ndarray | None]:
    """`coords` as the SparseLatent constructor keeps them, and the order
    that sorted them (None when they already were): a read-only C-ordered
    (n, 3) int64 array, inside the fine grid (else a BoundsError), sorted
    and unique (else a ValueError).

    In-bounds coordinates' keys are a bijection, so strictly increasing
    keys mean the input is canonical and unique, and the sort is skipped.
    A read-only array that passes is returned itself, so a latent built
    on a checked array keeps that array; a writable one is frozen as a
    view, so the caller's array stays writable.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        coords = coords.reshape(-1, 3)
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    check_in_grid(coords, dims)
    if _is_canonical(coords, dims):
        return (_freeze(coords.view()) if coords.flags.writeable else coords), None
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    if len(coords) > 1 and (np.diff(coords, axis=0) == 0).all(axis=1).any():
        raise ValueError("sparse latent has duplicate coordinates")
    return _freeze(coords), order


def check_in_grid(coords: np.ndarray, dims: Dims) -> None:
    """BoundsError naming the first (n, 3) coordinate outside the fine grid."""
    hi = np.array(dims.grid_shape, dtype=np.int64)
    if len(coords) and ((coords < 0) | (coords >= hi)).any():
        bad = coords[((coords < 0) | (coords >= hi)).any(axis=1)][0]
        raise BoundsError(f"coordinate {tuple(bad)} outside grid {dims.grid_shape}")


@dataclass(frozen=True)
class SparseLatent:
    """Set of (voxel coordinate, feature vector) pairs on the fine grid.

    Coordinates live in [0, a*M) x [0, b*M) x [0, M), are unique, and are
    kept in lexicographic order so that equal sets compare bit-equal.
    Features are (n, l) float32.
    """

    dims: Dims
    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        coords, order = checked_coords(self.dims, self.coords)
        features = np.ascontiguousarray(
            np.asarray(self.features).reshape(len(coords), self.dims.l), dtype=DTYPE
        )
        if not np.isfinite(features).all():
            raise ValueError("sparse latent contains non-finite features")
        if order is not None:
            features = features[order]
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", _freeze(features))

    def __len__(self) -> int:
        return len(self.coords)

    @classmethod
    def empty(cls, dims: Dims) -> "SparseLatent":
        return cls(dims, np.zeros((0, 3), dtype=np.int64), np.zeros((0, dims.l), dtype=DTYPE))

    def with_features(self, features: np.ndarray) -> "SparseLatent":
        """Same coordinates, new features; only the features are checked."""
        return SparseLatent._on_checked_coords(self.dims, self.coords, features)

    @property
    def values(self) -> np.ndarray:
        return self.features

    with_values = with_features

    @classmethod
    def _on_checked_coords(cls, dims: Dims, coords: np.ndarray, features) -> "SparseLatent":
        """Latent over `coords` that a constructor already checked for `dims`.

        The coordinates must be the read-only array of a built latent (or
        one checked the same way); the features get the constructor's
        shape, dtype and finiteness checks.
        """
        features = np.ascontiguousarray(
            np.asarray(features).reshape(len(coords), dims.l), dtype=DTYPE
        )
        if not np.isfinite(features).all():
            raise ValueError("sparse latent contains non-finite features")
        latent = object.__new__(cls)
        object.__setattr__(latent, "dims", dims)
        object.__setattr__(latent, "coords", coords)
        object.__setattr__(latent, "features", _freeze(features))
        return latent


@dataclass(frozen=True)
class DenseBatch:
    """n dense patch latents of one `dims`, stacked along a new first axis.

    `data` has shape (n,) + dims.dense_shape and holds float32 values,
    finite and read-only, like a DenseLatent's.  `batch[k]` is item k as
    a DenseLatent, a view of `data`.
    """

    dims: Dims
    data: np.ndarray

    def __post_init__(self):
        data = _dense_batch_data(self.dims, self.data)
        item = first_nonfinite_item(data)
        if item is not None:
            raise ValueError(f"item {item} of a dense batch contains non-finite entries")
        object.__setattr__(self, "data", _freeze(data))

    @classmethod
    def _of_finite(cls, dims: Dims, data: np.ndarray) -> "DenseBatch":
        """Batch of values known to be finite (gathered from latents, or
        checked with `first_nonfinite_item`); only the shape is checked."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "dims", dims)
        object.__setattr__(batch, "data", _freeze(_dense_batch_data(dims, data)))
        return batch

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, k):
        latent = object.__new__(DenseLatent)
        object.__setattr__(latent, "dims", self.dims)
        object.__setattr__(latent, "data", self.data[operator.index(k)])
        return latent

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @property
    def values(self) -> np.ndarray:
        return self.data

    def with_values(self, values: np.ndarray) -> "DenseBatch":
        return DenseBatch(self.dims, values)


def _dense_batch_data(dims: Dims, data) -> np.ndarray:
    data = np.ascontiguousarray(data, dtype=DTYPE)
    if data.ndim != 5 or data.shape[1:] != dims.dense_shape:
        raise DimensionError(f"dense batch shape {data.shape} != (n,) + {dims.dense_shape}")
    return data


@dataclass(frozen=True)
class SparseBatch:
    """n sparse patch latents of one `dims`, stacked row-wise.

    Item k holds rows `bounds[k]:bounds[k + 1]` of `coords` (int64,
    (rows, 3)) and `features` (float32, (rows, l)).  Each item's
    coordinates are in bounds and strictly increasing, as a
    SparseLatent's are; features are finite.  All arrays are read-only;
    `batch[k]` is item k as a SparseLatent of views.
    """

    dims: Dims
    coords: np.ndarray
    features: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(np.asarray(self.coords).reshape(-1, 3), dtype=np.int64)
        bounds = np.ascontiguousarray(self.bounds, dtype=np.int64).reshape(-1)
        if len(bounds) < 1 or bounds[0] != 0 or bounds[-1] != len(coords) or (np.diff(bounds) < 0).any():
            raise DimensionError(f"batch bounds do not split {len(coords)} rows")
        problem = batch_coords_problem(self.dims, coords, bounds)
        if problem is not None:
            raise BoundsError(f"item {problem[0]} of a sparse batch: {problem[1]}")
        features = _sparse_batch_features(self.dims, self.features, len(coords))
        item = first_nonfinite_item(features, bounds)
        if item is not None:
            raise ValueError(f"item {item} of a sparse batch contains non-finite features")
        for name, value in (("coords", coords), ("features", features), ("bounds", bounds)):
            object.__setattr__(self, name, _freeze(value))

    @classmethod
    def _on_checked_coords(
        cls, dims: Dims, coords: np.ndarray, features, bounds: np.ndarray
    ) -> "SparseBatch":
        """Batch over `coords` and `bounds` that a constructor (or
        `batch_coords_problem`) already checked, with features known to be
        finite; only the features' shape is checked.  The arrays are
        marked read-only, not copied."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "dims", dims)
        object.__setattr__(batch, "coords", _freeze(coords))
        object.__setattr__(batch, "features", _freeze(_sparse_batch_features(dims, features, len(coords))))
        object.__setattr__(batch, "bounds", _freeze(bounds))
        return batch

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, k):
        k = range(len(self))[operator.index(k)]
        lo, hi = self.bounds[k], self.bounds[k + 1]
        latent = object.__new__(SparseLatent)
        object.__setattr__(latent, "dims", self.dims)
        object.__setattr__(latent, "coords", self.coords[lo:hi])
        object.__setattr__(latent, "features", self.features[lo:hi])
        return latent

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @property
    def values(self) -> np.ndarray:
        return self.features

    def with_values(self, values: np.ndarray) -> "SparseBatch":
        """Same coordinates and bounds, new features (checked)."""
        features = _sparse_batch_features(self.dims, values, len(self.coords))
        item = first_nonfinite_item(features, self.bounds)
        if item is not None:
            raise ValueError(f"item {item} of a sparse batch contains non-finite features")
        return SparseBatch._on_checked_coords(self.dims, self.coords, features, self.bounds)


PatchBatch = DenseBatch | SparseBatch


def _sparse_batch_features(dims: Dims, features, rows: int) -> np.ndarray:
    features = np.ascontiguousarray(features, dtype=DTYPE)
    if features.shape != (rows, dims.l):
        raise DimensionError(f"sparse batch features {features.shape} != {(rows, dims.l)}")
    return features


def stack_patches(patches: Sequence) -> PatchBatch:
    """The batch of `patches` in order: latents of one kind and one dims."""
    if not patches:
        raise ValueError("no patches to stack")
    dims = patches[0].dims
    kind = type(patches[0])
    if any(type(p) is not kind or p.dims != dims for p in patches):
        raise DimensionError("stacked patches must share one latent type and dims")
    if kind is DenseLatent:
        return DenseBatch._of_finite(dims, np.stack([p.data for p in patches]))
    return SparseBatch._on_checked_coords(
        dims,
        np.concatenate([p.coords for p in patches]),
        np.concatenate([p.features for p in patches]),
        np.cumsum([0] + [len(p) for p in patches]),
    )


def first_nonfinite_item(values: np.ndarray, bounds: np.ndarray | None = None) -> int | None:
    """Index of the first batch item holding a non-finite value, or None.

    Dense values stack their items along axis 0; sparse feature row r
    belongs to the item k with bounds[k] <= r < bounds[k + 1].
    """
    # A float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is; it needs no full-size mask.
    if np.isfinite(values.sum(dtype=np.float64)):
        return None
    finite = np.isfinite(values)
    row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
    return row if bounds is None else int(np.searchsorted(bounds, row, side="right")) - 1


def batch_coords_problem(dims: Dims, coords: np.ndarray, bounds: np.ndarray) -> tuple[int, str] | None:
    """(item, reason) for the first item of a sparse batch whose
    coordinates are outside `dims`'s grid or not strictly increasing;
    None when every item's coordinates could be a SparseLatent's as
    given."""
    if not len(coords):
        return None
    hi = np.array(dims.grid_shape)
    inside = coords.min() >= 0 and (coords < hi).all()
    steps = np.diff(_coord_key(coords, dims))
    starts = bounds[1:-1][(bounds[1:-1] > 0) & (bounds[1:-1] < len(coords))]
    steps[starts - 1] = 1  # an item's first row starts afresh
    if inside and steps.min(initial=1) > 0:
        return None
    outside = ((coords < 0) | (coords >= hi)).any(axis=1)
    unsorted = np.concatenate([[False], steps <= 0])
    bad = outside | unsorted
    row = int(np.argmax(bad))
    item = int(np.searchsorted(bounds, row, side="right")) - 1
    if outside[row]:
        return item, f"coordinate {tuple(int(v) for v in coords[row])} outside grid {dims.grid_shape}"
    return item, "coordinates are not sorted and unique"


def _coord_key(coords: np.ndarray, dims: Dims) -> np.ndarray:
    """Flatten coordinates into sortable scalar keys (lexicographic order)."""
    bm, m = dims.b * dims.M, dims.M
    return (coords[:, 0] * bm + coords[:, 1]) * m + coords[:, 2]


def _is_canonical(coords: np.ndarray, dims: Dims) -> bool:
    """Whether the in-bounds coordinates' keys strictly increase."""
    return bool((np.diff(_coord_key(coords, dims)) > 0).all())


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean voxel grid of shape (a*M, b*M, M)."""

    dims: Dims
    occupied: np.ndarray

    def __post_init__(self):
        occ = np.ascontiguousarray(self.occupied, dtype=bool)
        if occ.shape != self.dims.grid_shape:
            raise DimensionError(
                f"occupancy shape {occ.shape} != expected {self.dims.grid_shape}"
            )
        object.__setattr__(self, "occupied", _freeze(occ))

    @classmethod
    def empty(cls, dims: Dims) -> "OccupancyGrid":
        return cls(dims, np.zeros(dims.grid_shape, dtype=bool))

    @classmethod
    def from_coords(cls, dims: Dims, coords: np.ndarray) -> "OccupancyGrid":
        occ = np.zeros(dims.grid_shape, dtype=bool)
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        hi = np.array(dims.grid_shape, dtype=np.int64)
        if len(coords) and ((coords < 0) | (coords >= hi)).any():
            raise BoundsError("occupancy coordinate out of bounds")
        occ[coords[:, 0], coords[:, 1], coords[:, 2]] = True
        return cls(dims, occ)

    def coords(self) -> np.ndarray:
        """Occupied coordinates, (n, 3) C-ordered int64 in lexicographic order."""
        flat = np.flatnonzero(self.occupied)
        out = np.empty((len(flat), 3), dtype=np.int64)
        _, y, z = self.occupied.shape
        np.divmod(flat, z, out=(flat, out[:, 2]))
        np.divmod(flat, y, out=(out[:, 0], out[:, 1]))
        return out

    def count(self) -> int:
        return int(self.occupied.sum())


@dataclass(frozen=True)
class Schedule:
    """Strictly decreasing time sequence [t_1 > ... > t_k = 0], t_1 <= 1."""

    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 2:
            raise ValueError("schedule needs at least 2 times")
        if any(b >= a for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must be strictly decreasing")
        if times[-1] != 0.0:
            raise ValueError("schedule must terminate at t = 0")
        if times[0] > 1.0:
            raise ValueError("schedule must start at t <= 1")
        object.__setattr__(self, "times", times)

    @classmethod
    def linear(cls, t_start: float, k: int) -> "Schedule":
        """k uniformly spaced times from t_start down to 0."""
        return cls(tuple(np.linspace(t_start, 0.0, k)))

    def __len__(self) -> int:
        return len(self.times)

    def intervals(self) -> Iterable[tuple[float, float]]:
        """(t_m, t_{m+1}) pairs; fields are evaluated at the left endpoint."""
        return zip(self.times[:-1], self.times[1:])


def lerp_latent(x0: DenseLatent, eps: DenseLatent, t: float) -> DenseLatent:
    """Linear interpolation (1 - t) * x0 + t * eps between clean and noise."""
    if x0.dims != eps.dims:
        raise DimensionError(f"dims mismatch: {x0.dims} vs {eps.dims}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    t = DTYPE(t)
    return x0.with_data((DTYPE(1) - t) * x0.data + t * eps.data)


def sample_gaussian(dims: Dims, seed: int) -> DenseLatent:
    """I.i.d. standard-normal lattice; bit-identical for a fixed seed."""
    rng = np.random.default_rng(seed)
    return DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=DTYPE))


def init_sparse_noise(coords: np.ndarray, dims: Dims, seed: int) -> SparseLatent:
    """One i.i.d. standard-normal feature vector per coordinate.

    The draws are laid on the coordinates in canonical (sorted) order, so
    the result depends only on the coordinate *set* and the seed.  The
    constructor is the one check of the coordinates, and keeps a checked
    array (a latent's or a plan's `coords`) as the latent's coordinates.
    """
    coords = np.asarray(coords)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((coords.size // 3, dims.l), dtype=DTYPE)
    Z = SparseLatent(dims, coords, feats)
    if not np.may_share_memory(Z.features, feats):  # the constructor sorted the rows
        Z = SparseLatent._on_checked_coords(dims, Z.coords, feats)
    return Z
