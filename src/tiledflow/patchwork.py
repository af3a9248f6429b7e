"""Sliding-window patchification of extended lattices, and merging back.

A window of side K steps across the x/y-extended lattice with stride
K/d, so d controls overlap density.  Overlapping window vectors are
combined by per-cell averaging over the coverage count.  Dilated
sampling is the complementary scheme: the lattice splits into K x K
blocks of a x b pillar columns, and a*b backbone-sized samples are
assembled from one pillar per block.

The engine moves all windows of a field call as one stacked batch
(`DenseBatch`, `SparseBatch`).  Dense window boxes are cut by origin
from one sliding-window view (`window_boxes`, which the oracles' box
sections use too) and merged by d*d block adds of the whole stack into
a float64 buffer, ordered so that each cell still adds its windows in
the grid's row-major order.  Dilated samples are gathered with one
fancy index and scattered back with one assignment.

Sparse latents keep their coordinates across a whole schedule, so the
window geometry is planned once per (grid, coordinate set): a
`SparseWindowPlan` holds, per window, the rows inside it (found by a
binary search on the sorted x column plus a y/z mask, `box_rows`) and
their window-local coordinates, plus a rank layout of all windows'
rows: the global rows in groups of equal coverage c, and each group's
contributions as c contiguous runs, run j holding every row's j-th
window in window order.  Each step gathers the feature rows into one
block with one `take`.  The merge takes the reply into the rank layout
with one more, and sums each group run by run in float64, in the order
`np.add.reduceat` over each row's window-ordered contributions would
(the first, plus numpy's pairwise sum of the rest), so it gives the
same bits without a float64 copy of the reply.  It then divides by the
coverage.

The per-window forms (`patch_dense`, `merge_vectors` over a mapping,
`DilatedPartition.gather` of one sample) remain for callers that hold
single patches; they give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, CoverageError, DimensionError, ProviderError
from .lattice import DTYPE, DenseBatch, DenseLatent, Dims, SparseBatch, SparseLatent


@dataclass(frozen=True)
class Window:
    """Window (i, j) of side K with division factor d.

    Covers [i*K/d, i*K/d + K) x [j*K/d, j*K/d + K) x [0, K).
    """

    i: int
    j: int
    K: int
    d: int

    def __post_init__(self):
        if self.d < 1 or self.K % self.d != 0:
            raise ConfigError(f"division factor d={self.d} must divide K={self.K}")
        if self.i < 0 or self.j < 0:
            raise ConfigError("window indices must be non-negative")

    @property
    def stride(self) -> int:
        return self.K // self.d

    @property
    def x0(self) -> int:
        return self.i * self.stride

    @property
    def y0(self) -> int:
        return self.j * self.stride

    @property
    def box(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        return ((self.x0, self.x0 + self.K), (self.y0, self.y0 + self.K), (0, self.K))


@dataclass(frozen=True)
class PatchGrid:
    """All windows tiling an (a*K, b*K, K) lattice: i in [0, (a-1)d], j in [0, (b-1)d]."""

    dims: Dims
    d: int
    K: int

    def __post_init__(self):
        if self.K not in (self.dims.N, self.dims.M):
            raise ConfigError(f"K={self.K} must be one of N={self.dims.N}, M={self.dims.M}")
        if self.d < 1 or self.K % self.d != 0:
            raise ConfigError(f"division factor d={self.d} must divide K={self.K}")

    @property
    def ni(self) -> int:
        return (self.dims.a - 1) * self.d + 1

    @property
    def nj(self) -> int:
        return (self.dims.b - 1) * self.d + 1

    @property
    def count(self) -> int:
        return self.ni * self.nj

    def window(self, i: int, j: int) -> Window:
        if not (0 <= i < self.ni and 0 <= j < self.nj):
            raise ConfigError(f"window index ({i}, {j}) outside grid {self.ni}x{self.nj}")
        return Window(i, j, self.K, self.d)

    def windows(self) -> tuple[Window, ...]:
        """All windows in fixed row-major order (the reduction order)."""
        return self._windows

    @cached_property
    def _windows(self) -> tuple[Window, ...]:
        return tuple(Window(i, j, self.K, self.d) for i in range(self.ni) for j in range(self.nj))

    @cached_property
    def origins(self) -> tuple[np.ndarray, np.ndarray]:
        """The windows' x0 and y0, in window order, as read-only arrays."""
        i, j = np.divmod(np.arange(self.count), self.nj)
        stride = self.K // self.d
        return _ro(i * stride), _ro(j * stride)

    def check_fits(self, shape: Sequence[int]) -> None:
        """DimensionError unless every window fits inside a lattice of
        `shape` (x, y, z, ...)."""
        stride = self.K // self.d
        X, Y, H = shape[:3]
        if (self.ni - 1) * stride + self.K > X or (self.nj - 1) * stride + self.K > Y or self.K > H:
            raise DimensionError(f"windows of side {self.K} exceed lattice {tuple(shape)}")

    def axis_coverage(self, n_windows: int, extent: int) -> np.ndarray:
        """Per-position window-coverage count along one extended axis."""
        pos = np.arange(extent)
        s = self.K // self.d
        lo = np.maximum(0, -(-(pos - self.K + 1) // s))  # ceil division
        hi = np.minimum(n_windows - 1, pos // s)
        return (hi - lo + 1).astype(np.int64)

    def coverage_xy(self) -> np.ndarray:
        """Coverage count per (x, y) column of the extended lattice."""
        cx = self.axis_coverage(self.ni, self.dims.a * self.K)
        cy = self.axis_coverage(self.nj, self.dims.b * self.K)
        return np.outer(cx, cy)


def make_patch_grid(dims: Dims, d: int, K: int) -> PatchGrid:
    """Overlapping-window grid; ((a-1)d + 1) * ((b-1)d + 1) windows in total."""
    return PatchGrid(dims, d, K)


def patch_dense(Z: DenseLatent, w: Window) -> DenseLatent:
    """Copy the window's sub-lattice out as an unextended (K, K, K, C) latent."""
    (x0, x1), (y0, y1), (z0, z1) = w.box
    if x1 > Z.data.shape[0] or y1 > Z.data.shape[1] or z1 > Z.data.shape[2]:
        raise DimensionError(f"window {w.box} exceeds lattice {Z.data.shape}")
    sub = Z.data[x0:x1, y0:y1, z0:z1].copy()
    return DenseLatent(Z.dims.patch_dims(), sub)


def window_boxes(data: np.ndarray, K: int) -> np.ndarray:
    """Every box of side K in the (X, Y, H, C) lattice `data`, as one
    (x0, y0, K, K, K, C) view: entry [x0, y0] is
    data[x0 : x0 + K, y0 : y0 + K, :K].  Indexing it with arrays of
    origins copies their boxes out in one step.
    """
    # (x0, y0, z, C, x, y), then the box axes in lattice order
    return sliding_window_view(data[:, :, :K], (K, K), axis=(0, 1)).transpose(0, 1, 4, 5, 2, 3)


def gather_dense(Z: DenseLatent, grid: PatchGrid) -> DenseBatch:
    """Every window's patch of Z, in window order, as one batch: the
    boxes at the grid's origins (`window_boxes`).  Item k equals
    `patch_dense(Z, grid.windows()[k])`.
    """
    grid.check_fits(Z.data.shape)
    stack = window_boxes(Z.data, grid.K)[grid.origins]
    return DenseBatch._of_finite(Z.dims.patch_dims(), stack)


def box_rows(coords: np.ndarray, x0: int, y0: int, K: int) -> np.ndarray:
    """Ascending indices of the rows of lexicographically sorted `coords`
    inside the box [x0, x0 + K) x [y0, y0 + K) x [0, K)."""
    lo, hi = np.searchsorted(coords[:, 0], [x0, x0 + K])
    c = coords[lo:hi]
    inside = (c[:, 1] >= y0) & (c[:, 1] < y0 + K) & (c[:, 2] < K)
    return lo + np.flatnonzero(inside)


def restrict_sparse(Z: SparseLatent, x0: int, y0: int, K: int) -> SparseLatent:
    """Entries of Z inside the box at (x0, y0), translated into [0, K)^3."""
    rows = box_rows(Z.coords, x0, y0, K)
    shifted = Z.coords[rows] - np.array([x0, y0, 0], dtype=np.int64)
    return SparseLatent(Z.dims.patch_dims(), shifted, Z.features[rows])


def patch_sparse(Z: SparseLatent, w: Window) -> SparseLatent:
    """Keep entries inside the window, translated into [0, K)^2 x [0, K)."""
    return restrict_sparse(Z, w.x0, w.y0, w.K)


def merge_vectors(patch_vectors: Mapping, grid: PatchGrid, plan: SparseWindowPlan | None = None):
    """Average overlapping patch vectors, one per window (i, j), into one
    extended vector.

    Per cell: sum of zero-padded patch values divided by the number of
    covering windows.  Sparse latents use the same rule per coordinate
    and feature channel, dividing by the geometric coverage count; each
    sparse patch must hold exactly its window's share of the coordinates
    `plan` was built for (by default, the union of all patches).
    Accumulation runs in float64 with a fixed window order.
    """
    windows = grid.windows()
    if set(patch_vectors.keys()) != {(w.i, w.j) for w in windows}:
        raise CoverageError("merge requires exactly one patch vector per grid window")
    vectors = [patch_vectors[(w.i, w.j)] for w in windows]
    if isinstance(vectors[0], SparseLatent):
        if plan is None:
            plan = SparseWindowPlan(grid, _union_coords(patch_vectors, grid))
        return plan.merge(vectors)
    return merge_dense(np.stack([X.data for X in vectors]), grid)


def merge_dense(values: np.ndarray, grid: PatchGrid) -> DenseLatent:
    """Average the stacked window vectors `values` ((n, K, K, K, C), in
    window order) into one extended vector.

    The float64 sum adds each cell's windows in window order, so it is
    bit-equal to adding the zero-padded patches one window at a time.
    """
    dims, K, d = grid.dims, grid.K, grid.d
    stride, C = K // d, dims.C
    if values.shape != (grid.count, K, K, K, C):
        raise DimensionError(f"window vectors {values.shape} != {(grid.count, K, K, K, C)}")
    acc = np.zeros((dims.a * K, dims.b * K, K, C), dtype=np.float64)
    # The lattice in stride x stride column blocks, and every window in its
    # d x d blocks: window (i, j) adds its block (p, q) onto block
    # (i + p, j + q).  Descending p, then q, adds each block's windows in
    # row-major window order.
    blocks = acc.reshape(dims.a * d, stride, dims.b * d, stride, K, C).swapaxes(1, 2)
    parts = values.reshape(grid.ni, grid.nj, d, stride, d, stride, K, C).swapaxes(3, 4)
    for p in reversed(range(d)):
        for q in reversed(range(d)):
            blocks[p : p + grid.ni, q : q + grid.nj] += parts[:, :, p, q]
    cov = grid.coverage_xy()
    if (cov < 1).any():
        raise CoverageError("uncovered cell in patch grid")
    acc /= cov[:, :, None, None]
    return DenseLatent(dims, acc.astype(DTYPE))


def _union_coords(patch_vectors: Mapping, grid: PatchGrid) -> np.ndarray:
    """Sorted union of all patches' coordinates, translated to global."""
    parts = [
        patch_vectors[(w.i, w.j)].coords + np.array([w.x0, w.y0, 0], dtype=np.int64)
        for w in grid.windows()
    ]
    return np.unique(np.concatenate(parts), axis=0)


class SparseWindowPlan:
    """Window geometry of one fixed coordinate set (held sorted) on a grid.

    Window k (`windows[k]`, in the grid's fixed row-major order) covers
    the global rows `rows[bounds[k]:bounds[k + 1]]`, whose window-local
    coordinates are `local[bounds[k]:bounds[k + 1]]`.  `coverage[r]`
    counts the windows holding global row r, and every row must lie in
    at least one.  `slot`, `groups` and `layout` are the rank layout
    `merge_features` sums through (see `_rank_layout`).

    The coordinates pass the `SparseLatent` constructor's checks once,
    here; each window's local coordinates are a translated run of them,
    so they stay in bounds and in order.  Gathered batches and the
    merged vector then check only their features.
    """

    def __init__(self, grid: PatchGrid, coords: np.ndarray):
        self.grid = grid
        self.coords = _checked_coords(grid.dims, coords)
        self.windows = grid.windows()
        window_rows = [box_rows(self.coords, w.x0, w.y0, w.K) for w in self.windows]
        counts = [len(rows) for rows in window_rows]
        self.rows = np.concatenate(window_rows)
        self.bounds = _ro(np.cumsum([0] + counts))
        local = self.coords[self.rows]
        for w, lo, hi in zip(self.windows, self.bounds[:-1], self.bounds[1:]):
            local[lo:hi, :2] -= (w.x0, w.y0)
        self.local = _ro(local)
        self.coverage = np.bincount(self.rows, minlength=len(self.coords))
        if (self.coverage < 1).any():
            raise CoverageError("sparse coordinate not covered by any window")
        self.slot, self.groups, self.layout = _rank_layout(self.rows, self.coverage)

    def gather(self, Z: SparseLatent) -> SparseBatch:
        """Every window's patch, in window order, as one batch: Z's rows
        inside it, in window-local coordinates, gathered by one `take`."""
        feats = Z.features.take(self.rows, axis=0)
        return SparseBatch._on_checked_coords(Z.dims.patch_dims(), self.local, feats, self.bounds)

    def merge(self, results: Sequence[SparseLatent]) -> SparseLatent:
        """Coverage-averaged sum of the per-window vectors, given in window
        order; each must keep its patch's coordinates, and the first that
        does not is named.  The sum is `merge_features`'."""
        if len(results) != len(self.windows):
            raise CoverageError("merge requires exactly one patch vector per grid window")
        l = self.grid.dims.l
        for w, lo, hi, X in zip(self.windows, self.bounds[:-1], self.bounds[1:], results):
            if not (isinstance(X, SparseLatent) and X.dims.l == l and np.array_equal(X.coords, self.local[lo:hi])):
                raise ProviderError(f"patch ({w.i}, {w.j}) does not keep its window's coordinates")
        return self.merge_features(np.concatenate([X.features for X in results]))

    def merge_features(self, values: np.ndarray) -> SparseLatent:
        """Coverage-averaged sum of the stacked window features `values`
        ((rows, l) float32, rows in the order `gather` makes them).

        One `take` lays the reply out by rank (`_rank_layout`).  Per
        coverage group, rank 0 is cast into the group's slice of a float64
        accumulator, ranks 1..c-1 are summed in numpy's pairwise order
        (`_pairwise_sum`) and added on, and the slice is divided by c;
        one `take` through `slot` puts the float32 rows back in global
        order.  `np.add.reduceat` over a row's contributions in window
        order copies the first and adds the pairwise sum of the rest to
        it, and casts to float64 are exact, so every row gets the bits
        that reduceat gives.  They do not depend on the order in which
        the windows were evaluated.
        """
        dims = self.grid.dims
        if values.shape != (len(self.rows), dims.l):
            raise DimensionError(f"window features {values.shape} != {(len(self.rows), dims.l)}")
        ranks = values.take(self.layout, axis=0)
        acc = np.empty((len(self.coords), dims.l), dtype=np.float64)
        for c, g0, g1, lo in self.groups:
            block = ranks[lo : lo + c * (g1 - g0)].reshape(c, g1 - g0, dims.l)
            head = acc[g0:g1]
            head[...] = block[0]
            if c > 1:
                head += _pairwise_sum(block[1:])
            head /= c
        merged = acc.astype(DTYPE).take(self.slot, axis=0)
        return SparseLatent._on_checked_coords(dims, self.coords, merged)


def _rank_layout(rows: np.ndarray, coverage: np.ndarray):
    """The rank layout of a plan's contributions: (slot, groups, layout).

    `rows` holds the global row of every contribution, window by window,
    and `coverage` counts each row's contributions.  A stable argsort on
    -coverage puts the global rows in groups of equal coverage; global
    row r sits at `slot[r]` of that order.  `groups` holds one
    (c, g0, g1, lo) per group: its coverage, its run [g0, g1) of the
    order, and where its contributions start in `layout`.  There they
    form a (c, g1 - g0) block in which rank j is one contiguous run
    holding each row's j-th contribution in window order.
    """
    order = np.argsort(rows, kind="stable")  # by row; each row's windows in order
    starts = np.cumsum(coverage) - coverage
    perm = np.argsort(-coverage, kind="stable")
    cov = coverage[perm]
    edges = np.flatnonzero(np.diff(cov, prepend=0, append=0))
    groups, parts, lo = [], [np.zeros(0, dtype=np.intp)], 0
    for g0, g1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
        c = int(cov[g0])
        parts.append((starts[perm[g0:g1]] + np.arange(c)[:, None]).ravel())
        groups.append((c, g0, g1, lo))
        lo += c * (g1 - g0)
    slot = np.empty_like(perm)
    slot[perm] = np.arange(len(perm))
    return _ro(slot), tuple(groups), _ro(order.take(np.concatenate(parts)))


def _pairwise_sum(ranks: np.ndarray):
    """Float64 sum over the leading axis of `ranks` in the order numpy's
    `pairwise_sum` adds a strided run of n values: sequentially for
    n < 8; for n <= 128 into eight accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest
    one by one; above that, the sums of two halves, the first n // 2
    rounded down to a multiple of 8."""
    n = len(ranks)
    if n < 8:
        res = ranks[0].astype(np.float64)
        for r in ranks[1:]:
            res += r
        return res
    if n <= 128:
        m = n - n % 8
        acc = ranks[:8].astype(np.float64)
        for i in range(8, m, 8):
            acc += ranks[i : i + 8]
        pairs = acc[0::2] + acc[1::2]
        res = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
        for r in ranks[m:]:
            res += r
        return res
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(ranks[:half]) + _pairwise_sum(ranks[half:])


def window_plan(grid: PatchGrid, coords: np.ndarray, plan: SparseWindowPlan | None = None) -> SparseWindowPlan:
    """The window plan of `coords` on `grid`: `plan` when given, else a new one.

    A plan built for another grid or coordinate set is a ConfigError.
    """
    if plan is None:
        return SparseWindowPlan(grid, coords)
    if plan.grid != grid or not np.array_equal(plan.coords, coords):
        raise ConfigError("window plan was built for another grid or coordinate set")
    return plan


def _checked_coords(dims: Dims, coords: np.ndarray) -> np.ndarray:
    """`coords` checked and ordered as the SparseLatent constructor does."""
    coords = np.asarray(coords).reshape(-1, 3)
    return SparseLatent(dims, coords, np.zeros((len(coords), dims.l), dtype=DTYPE)).coords


@dataclass(frozen=True)
class DilatedPartition:
    """a*b index maps, each picking one pillar per K x K block.

    src_x/src_y have shape (a*b, K, K); sample n reads its (u, v, :)
    column from lattice column (src_x[n, u, v], src_y[n, u, v]).  Across
    samples each pillar is used exactly once.
    """

    dims: Dims
    K: int
    src_x: np.ndarray
    src_y: np.ndarray

    def __len__(self) -> int:
        return self.dims.a * self.dims.b

    def gather(self, Z: DenseLatent, n: int) -> DenseLatent:
        """Sample n of Z."""
        return DenseLatent(self.dims.patch_dims(), Z.data[self.src_x[n], self.src_y[n]])

    def gather_batch(self, Z: DenseLatent) -> DenseBatch:
        """All samples of Z, in sample order, by one fancy index."""
        return DenseBatch._of_finite(self.dims.patch_dims(), Z.data[self.src_x, self.src_y])

    def scatter(self, sample_vectors) -> DenseLatent:
        """The lattice whose pillars hold the samples' columns.

        `sample_vectors` is a stacked (n, K, K, K, C) array or a sequence
        of n sample latents; the pillars are disjoint, so one assignment
        places them all.
        """
        if len(sample_vectors) != len(self):
            raise DimensionError(
                f"expected {len(self)} dilated samples, got {len(sample_vectors)}"
            )
        if not isinstance(sample_vectors, np.ndarray):
            sample_vectors = np.stack([sample.data for sample in sample_vectors])
        out = np.zeros(self.dims.dense_shape, dtype=DTYPE)
        out[self.src_x, self.src_y] = sample_vectors
        return DenseLatent(self.dims, out)


def dilated_partition(dims: Dims, K: int, seed: int = 0) -> DilatedPartition:
    """Split the (a*K, b*K, K) lattice into K*K blocks of a*b pillars and
    deal the pillars into a*b samples by a seeded per-block permutation.

    One `permuted` draw shuffles the sample axis of the (a*b, K, K) stack
    of pillar indices lane by lane, blocks in row-major order, so it takes
    the same draws as one `permutation(a*b)` call per block in that order.
    """
    if K not in (dims.N, dims.M):
        raise ConfigError(f"K={K} must be one of N={dims.N}, M={dims.M}")
    pillars = np.random.default_rng(seed).permuted(_block_pillars(dims.a, dims.b, K), axis=0)
    src_x, src_y = np.divmod(pillars, dims.b * K)
    return DilatedPartition(dims, K, _ro(src_x), _ro(src_y))


@lru_cache(maxsize=16)
def _block_pillars(a: int, b: int, K: int) -> np.ndarray:
    """Read-only (a*b, K, K) flat indices x * b*K + y of the pillars: entry
    (s, u, v) is pillar s of block (u, v), at (u*a + s // b, v*b + s % b)."""
    s, u, v = np.indices((a * b, K, K))
    return _ro((u * a + s // b) * (b * K) + v * b + s % b)


def _ro(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
