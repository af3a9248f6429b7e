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
window geometry is planned once per (grid, coordinate set), and read off
that geometry rather than searched for: a `SparseWindowPlan` holds, per
window, the rows inside it (K runs of the sorted rows, one per lattice
column x, located by a cumulative count of rows per (x, y) column).
Each step gathers the feature rows into one block with one `take`.  A
reply in window order is merged through the plan's rank layout (built
on first use): the global rows in groups of equal coverage c, and each
group's contributions as c runs, run j holding every row's j-th window
in window order.  The merge walks each group in blocks of at most
`MERGE_BLOCK_VALUES` contributions, takes them into a small buffer and
sums them rank by rank in float64, in the order `np.add.reduceat` over
each row's window-ordered contributions would (the first, plus numpy's
pairwise sum of the rest), so it gives the same bits with no
reply-sized copy.  It then divides by the coverage.  The merged rows
are finite exactly when the reply is, so the merged latent's own check
stands for a check of the reply.

The three layouts, `PatchGrid`, `SparseWindowPlan` and
`DilatedPartition`, answer the same members: `count`, `item_name(k)`,
`bounds` (None when dense), `batch_shape(Z)`, `gather(Z)`,
`window_order(field)` and `combine(values)`.  A reply may instead be an
`AgreedField`, which no combine sees (the contract is stated on the
class).

The per-window forms (`patch_dense`, `patch_sparse`, `merge_vectors`
over a mapping) remain for callers that hold single patches; they give
the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, CoverageError, DimensionError, ProviderError
from .lattice import DTYPE, DenseBatch, DenseLatent, Dims, SparseBatch, SparseLatent, check_in_grid, checked_coords

# The most contributions (coverage x rows x channels) one block of a
# sparse merge takes from a reply: 256 KB of float32, plus float64
# accumulators, which stay in a core's cache while the block is summed.
MERGE_BLOCK_VALUES = 1 << 16


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

    bounds = None

    def item_name(self, k: int) -> str:
        i, j = divmod(k, self.nj)
        return f"patch ({i}, {j})"

    def batch_shape(self, Z: DenseLatent) -> tuple[int, ...]:
        return (self.count, self.K, self.K, self.K, Z.dims.C)

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

    def gather(self, Z: DenseLatent) -> DenseBatch:
        """Every window's patch of Z, in window order, as one batch: the
        boxes at the origins (`window_boxes`).  Item k equals
        `patch_dense(Z, self.windows()[k])`."""
        self.check_fits(Z.data.shape)
        return DenseBatch._of_finite(Z.dims.patch_dims(), self.window_order(Z.data))

    def window_order(self, field: np.ndarray) -> np.ndarray:
        """The lattice `field` cut at the windows' origins, as `gather`
        stacks it."""
        return window_boxes(field, self.K)[self.origins]

    def combine(self, values: np.ndarray) -> DenseLatent:
        """Average the stacked window vectors `values` ((n, K, K, K, C), in
        window order) into one extended vector.

        The float64 sum adds each cell's windows in window order, so it is
        bit-equal to adding the zero-padded patches one window at a time.
        """
        dims, K, d = self.dims, self.K, self.d
        stride, C = K // d, dims.C
        if values.shape != (self.count, K, K, K, C):
            raise DimensionError(f"window vectors {values.shape} != {(self.count, K, K, K, C)}")
        acc = np.zeros((dims.a * K, dims.b * K, K, C), dtype=np.float64)
        # The lattice in stride x stride column blocks, and every window in its
        # d x d blocks: window (i, j) adds its block (p, q) onto block
        # (i + p, j + q).  Descending p, then q, adds each block's windows in
        # row-major window order.
        blocks = acc.reshape(dims.a * d, stride, dims.b * d, stride, K, C).swapaxes(1, 2)
        parts = values.reshape(self.ni, self.nj, d, stride, d, stride, K, C).swapaxes(3, 4)
        for p in reversed(range(d)):
            for q in reversed(range(d)):
                blocks[p : p + self.ni, q : q + self.nj] += parts[:, :, p, q]
        cov = self.coverage_xy()
        if (cov < 1).any():
            raise CoverageError("uncovered cell in patch grid")
        acc /= cov[:, :, None, None]
        return DenseLatent(dims, acc.astype(DTYPE))

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


def box_rows(coords: np.ndarray, x0: int, y0: int, K: int) -> np.ndarray:
    """Ascending indices of the rows of lexicographically sorted `coords`
    inside the box [x0, x0 + K) x [y0, y0 + K) x [0, K)."""
    lo, hi = np.searchsorted(coords[:, 0], [x0, x0 + K])
    c = coords[lo:hi]
    inside = (c[:, 1] >= y0) & (c[:, 1] < y0 + K) & (c[:, 2] < K)
    return lo + np.flatnonzero(inside)


def restrict_sparse(Z: SparseLatent, x0: int, y0: int, K: int) -> SparseLatent:
    """Entries of Z inside the box at (x0, y0), translated into [0, K)^3.

    A translated run of Z's rows keeps their order and uniqueness, so
    only its bounds are checked, as the constructor checks them."""
    rows = box_rows(Z.coords, x0, y0, K)
    shifted = Z.coords[rows] - np.array([x0, y0, 0], dtype=np.int64)
    dims = Z.dims.patch_dims()
    check_in_grid(shifted, dims)
    return SparseLatent._on_checked_coords(dims, _ro(shifted), Z.features[rows])


def patch_sparse(Z: SparseLatent, w: Window) -> SparseLatent:
    """Keep entries inside the window, translated into [0, K)^2 x [0, K)."""
    return restrict_sparse(Z, w.x0, w.y0, w.K)


def merge_vectors(patch_vectors: Mapping, grid: PatchGrid):
    """Average overlapping patch vectors, one per window (i, j), into one
    extended vector.

    Per cell: sum of zero-padded patch values divided by the number of
    covering windows.  Sparse latents use the same rule per coordinate
    and feature channel, dividing by the geometric coverage count; each
    sparse patch must hold exactly its window's share of the union of
    all patches.  Accumulation runs in float64 with a fixed window order.
    """
    windows = grid.windows()
    if set(patch_vectors.keys()) != {(w.i, w.j) for w in windows}:
        raise CoverageError("merge requires exactly one patch vector per grid window")
    vectors = [patch_vectors[(w.i, w.j)] for w in windows]
    if isinstance(vectors[0], SparseLatent):
        return SparseWindowPlan(grid, _union_coords(patch_vectors, grid)).merge(vectors)
    return grid.combine(np.stack([X.data for X in vectors]))


def _union_coords(patch_vectors: Mapping, grid: PatchGrid) -> np.ndarray:
    """Sorted union of all patches' coordinates, translated to global."""
    parts = [
        patch_vectors[(w.i, w.j)].coords + np.array([w.x0, w.y0, 0], dtype=np.int64)
        for w in grid.windows()
    ]
    return np.unique(np.concatenate(parts), axis=0)


class AgreedField:
    """A layout's reply as the one field its windows agree on: `values`
    is shaped like the latent's own field, `Z.values`.  It is not an
    array, so it never passes for a reply in window order.

    The contract: `layout_field` takes it as Z's new values; no combine
    sees one.  `values` holds the bits the layout's `combine` gives the
    reply's expansion to window order, `window_order(values)`, which
    serves to name a failing window.  The provider that answers one
    keeps that promise.  The exact oracle's field, of which every
    window's vector is a cut, keeps it, because c float32 copies of a
    value sum exactly in float64 and divide back to it; on a grid it
    adds +0.0 itself, as the grid merge's float64 sum starts from +0.0
    and so turns -0.0 into +0.0.  An XFP1 server's merged field keeps
    it by being the combine's own output.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values


class SparseWindowPlan:
    """Window geometry of one fixed coordinate set (held sorted) on a grid.

    Window k (`grid.windows()[k]`, in the grid's fixed row-major order) covers
    the global rows `rows[bounds[k]:bounds[k + 1]]`, whose window-local
    coordinates are `local[bounds[k]:bounds[k + 1]]`.  `coverage[r]`
    counts the windows holding global row r, and every row must lie in
    at least one.  `rank_layout` is the (slot, groups, layout) that
    `combine` sums a window-order reply through, built on first
    use: the global rows listed in groups of equal coverage c, in
    descending c and each group in row order (global row r sits at
    `slot[r]` of that list), and one (c, g0, g1, lo) per group for its
    run [g0, g1) of the list and where its contributions start in
    `layout`.  There they form a (c, g1 - g0) block in which rank j is
    one contiguous run of reply positions, each row's j-th window in
    window order, so `rows.take(layout)` is the group's rows once per
    rank.  A merge reads that block a few columns at a time and keeps
    nothing on the plan.

    All of it follows from the geometry, without a search per window or
    a sort of the window rows.  The coordinates are sorted by x, then y,
    then z, and none reaches past a window's height K, so window k's rows
    are K runs of the global rows, one per column (x, y0_k) to
    (x, y0_k + K), read off a cumulative count of rows per (x, y) column.
    A row's windows are those of its stride block (x // s, y // s): ci
    consecutive i times cy consecutive j, so the window of rank q is
    (ilo + q // cy, jlo + q % cy), and its position in the reply is a
    gather from the per-run offsets.

    The coordinates pass the `SparseLatent` constructor's coordinate
    check (`checked_coords`) once, in the constructor, which also refuses
    a row outside every window; `rows`, `bounds` and `coverage` are built
    on first use, as `rank_layout` and `local` are.  Each window's local
    coordinates are a translated run of the coordinates, so they stay in
    bounds and in order.  Gathered batches and the merged vector then
    check only their features.
    """

    def __init__(self, grid: PatchGrid, coords: np.ndarray):
        self.grid = grid
        self.coords, _ = checked_coords(grid.dims, coords)
        K = grid.K
        x, y, z = self.coords.T
        if ((x >= grid.dims.a * K) | (y >= grid.dims.b * K) | (z >= K)).any():
            raise CoverageError("sparse coordinate not covered by any window")

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(shift, rows, bounds), built together on first use: run (k, u)
        holds reply positions ends - lengths + n for its rows starts + n."""
        grid = self.grid
        K = grid.K
        X, Y = grid.dims.a * K, grid.dims.b * K
        x, y = self.coords[:, 0], self.coords[:, 1]
        # column[x * Y + y] is the first row of column (x, y); one past the end
        column = np.zeros(X * Y + 1, dtype=np.int64)
        np.cumsum(np.bincount(x * Y + y, minlength=X * Y), out=column[1:])
        x0, y0 = grid.origins
        first = (x0[:, None] + np.arange(K)) * Y + y0[:, None]  # (window, u): column (x0 + u, y0)
        starts = column[first].ravel()
        lengths = column[first + K].ravel() - starts
        ends = np.cumsum(lengths)
        shift = _ro(ends - lengths - starts)
        rows = _ro(np.arange(ends[-1]) - np.repeat(shift, lengths))
        return shift, rows, _ro(np.concatenate(([0], ends[K - 1 :: K])))

    @property
    def rows(self) -> np.ndarray:
        return self._runs[1]

    @property
    def bounds(self) -> np.ndarray:
        return self._runs[2]

    @cached_property
    def coverage(self) -> np.ndarray:
        grid = self.grid
        cx = grid.axis_coverage(grid.ni, grid.dims.a * grid.K)
        cy = grid.axis_coverage(grid.nj, grid.dims.b * grid.K)
        return _ro(cx[self.coords[:, 0]] * cy[self.coords[:, 1]])

    @property
    def count(self) -> int:
        return self.grid.count

    def item_name(self, k: int) -> str:
        return self.grid.item_name(k)

    def batch_shape(self, Z: SparseLatent) -> tuple[int, ...]:
        return (len(self.rows), Z.dims.l)

    @cached_property
    def rank_layout(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """(slot, groups, layout), from the geometry: one pass per coverage."""
        grid = self.grid
        K, d, s = grid.K, grid.d, grid.K // grid.d
        x, y = self.coords[:, 0], self.coords[:, 1]
        cy = grid.axis_coverage(grid.nj, grid.dims.b * K)[y]
        ilo = np.maximum(x // s - d + 1, 0)
        jlo = np.maximum(y // s - d + 1, 0)
        groups, order, parts, g0, lo = [], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], 0, 0
        for c in np.unique(self.coverage)[::-1].tolist():
            members = np.flatnonzero(self.coverage == c)
            qi, qj = np.divmod(np.arange(c)[:, None], cy[members])  # rank q = qi * cy + qj
            i = ilo[members] + qi
            run = (i * grid.nj + jlo[members] + qj) * K + x[members] - i * s
            parts.append((self._runs[0][run] + members).ravel())
            order.append(members)
            groups.append((c, g0, g0 + len(members), lo))
            g0, lo = g0 + len(members), lo + c * len(members)
        slot = np.empty(len(self.coords), dtype=np.intp)
        slot[np.concatenate(order)] = np.arange(len(slot))
        return _ro(slot), tuple(groups), _ro(np.concatenate(parts))

    @cached_property
    def local(self) -> np.ndarray:
        """Every window row's window-local coordinates, window by window;
        built on first use (`gather` and `merge` read it)."""
        local = self.coords.take(self.rows, axis=0)
        origins = np.stack(self.grid.origins, axis=1)
        local[:, :2] -= np.repeat(origins, np.diff(self.bounds), axis=0)
        return _ro(local)

    def gather(self, Z: SparseLatent) -> SparseBatch:
        """Every window's patch, in window order, as one batch: Z's rows
        inside it, in window-local coordinates, gathered by one `take`."""
        feats = self.window_order(Z.features)
        return SparseBatch._on_checked_coords(Z.dims.patch_dims(), self.local, feats, self.bounds)

    def merge(self, results: Sequence[SparseLatent]) -> SparseLatent:
        """Coverage-averaged sum of the per-window vectors, given in window
        order; each must keep its patch's coordinates, and the first that
        does not is named.  The sum is `combine`'s."""
        windows = self.grid.windows()
        if len(results) != len(windows):
            raise CoverageError("merge requires exactly one patch vector per grid window")
        l = self.grid.dims.l
        for w, lo, hi, X in zip(windows, self.bounds[:-1], self.bounds[1:], results):
            if not (isinstance(X, SparseLatent) and X.dims.l == l and np.array_equal(X.coords, self.local[lo:hi])):
                raise ProviderError(f"patch ({w.i}, {w.j}) does not keep its window's coordinates")
        return self.combine(np.concatenate([X.features for X in results]))

    def window_order(self, field: np.ndarray) -> np.ndarray:
        """The (n, l) `field` of the plan's rows taken through `rows`, in
        the order `gather` makes."""
        return field.take(self.rows, axis=0)

    def combine(self, values: np.ndarray) -> SparseLatent:
        """Coverage-averaged sum of the stacked window features `values`
        ((rows, l) float32, rows in the order `gather` makes them).

        Each coverage group c is merged in blocks of consecutive rows,
        as many as keep c * rows * l within `MERGE_BLOCK_VALUES` (at
        least one): one `take` of a block's columns of the group's
        (c, rows) layout copies its contributions from the reply into a
        float32 buffer made for this call, ranks 1..c-1 are summed in
        numpy's pairwise order (`_pairwise_sum`, with float64
        accumulators also made for this call) into the block's slice of
        a float64 accumulator, rank 0 is added and the slice divided by
        c; one `take` through `slot` then puts the float32 rows back in
        global order.  `np.add.reduceat` over a row's contributions in
        window order adds the pairwise sum of the rest to the first,
        casts to float64 are exact and addition commutes, so every row
        gets the bits that reduceat gives, whatever the block size.
        They do not depend on the order in which the windows were
        evaluated.  A merge keeps no state on the plan, so threads may
        merge on one plan at once.

        The float64 sums of finite float32 values cannot overflow, and
        their means cast to finite float32, so the merged rows are finite
        exactly when `values` is; the merged latent's finiteness check
        (a ValueError) therefore covers every reply value.
        """
        dims = self.grid.dims
        l = dims.l
        if values.shape != (len(self.rows), l):
            raise DimensionError(f"window features {values.shape} != {(len(self.rows), l)}")
        slot, groups, layout = self.rank_layout
        # rows per block of each group, and buffers that hold the largest block
        sizes = [(c, min(g1 - g0, max(1, MERGE_BLOCK_VALUES // (c * l)))) for c, g0, g1, _ in groups]
        taken = np.empty(max([c * m * l for c, m in sizes], default=0), dtype=DTYPE)
        scratch = np.empty(max([8 * m * l for c, m in sizes if c > 8], default=0))
        acc = np.empty((len(self.coords), l), dtype=np.float64)
        for (c, g0, g1, lo), (_, m) in zip(groups, sizes):
            group = layout[lo : lo + c * (g1 - g0)].reshape(c, g1 - g0)
            for b0 in range(0, g1 - g0, m):
                block = group[:, b0 : b0 + m]
                n = block.shape[1]
                ranks = taken[: c * n * l].reshape(c, n, l)
                np.take(values, block, axis=0, out=ranks, mode="clip")
                head = acc[g0 + b0 : g0 + b0 + n]
                if c > 1:
                    _pairwise_sum(ranks[1:], head, scratch)
                    head += ranks[0]
                else:
                    head[...] = ranks[0]
                head /= c
        merged = acc.astype(DTYPE).take(slot, axis=0)
        return SparseLatent._on_checked_coords(dims, self.coords, merged)


def _pairwise_sum(ranks: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write into the float64 `out` the sum over the leading axis of
    `ranks` in the order numpy's `pairwise_sum` adds a strided run of n
    values: sequentially for n < 8; for n <= 128 into eight
    accumulators, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the rest one by one; above that, the sums of two
    halves, the first n // 2 rounded down to a multiple of 8.  The eight
    accumulators live in the flat float64 `scratch`, which must hold
    8 * out.size values when n >= 8."""
    n = len(ranks)
    if n < 8:
        out[...] = ranks[0]
        for r in ranks[1:]:
            out += r
        return
    if n <= 128:
        m = n - n % 8
        acc = scratch[: 8 * out.size].reshape((8,) + out.shape)
        acc[...] = ranks[:8]
        for i in range(8, m, 8):
            acc += ranks[i : i + 8]
        np.add(acc[0::2], acc[1::2], out=acc[0::2])
        np.add(acc[0], acc[2], out=acc[0])
        np.add(acc[4], acc[6], out=acc[4])
        np.add(acc[0], acc[4], out=out)
        for r in ranks[m:]:
            out += r
        return
    half = n // 2 - (n // 2) % 8
    _pairwise_sum(ranks[:half], out, scratch)
    rest = np.empty_like(out)
    _pairwise_sum(ranks[half:], rest, scratch)
    out += rest


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

    count = property(__len__)
    bounds = None

    def item_name(self, n: int) -> str:
        return f"dilated sample {n}"

    def batch_shape(self, Z: DenseLatent) -> tuple[int, ...]:
        return (len(self), self.K, self.K, self.K, Z.dims.C)

    def gather(self, Z: DenseLatent) -> DenseBatch:
        """All samples of Z, in sample order, by one fancy index."""
        return DenseBatch._of_finite(self.dims.patch_dims(), self.window_order(Z.data))

    def window_order(self, field: np.ndarray) -> np.ndarray:
        """The lattice `field` cut by one fancy index into the samples, as
        `gather` stacks them."""
        return field[self.src_x, self.src_y]

    def combine(self, values: np.ndarray) -> DenseLatent:
        return self.scatter(values)

    def scatter(self, sample_vectors: np.ndarray) -> DenseLatent:
        """The lattice whose pillars hold the samples' columns.

        `sample_vectors` is the stacked (n, K, K, K, C) array of the n
        samples; the pillars are disjoint, so one assignment places them
        all.
        """
        if len(sample_vectors) != len(self):
            raise DimensionError(
                f"expected {len(self)} dilated samples, got {len(sample_vectors)}"
            )
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
