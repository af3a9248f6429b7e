"""Vector-field providers and the tiled denoising field.

A provider maps (patch latent, condition, t) to a patch vector of the
same shape.  The extended field evaluates the provider on every sliding
window and averages the zero-padded patch vectors over their coverage
counts; the mixed field blends that with dilated-sample evaluations via
the schedule gamma(t).  Integration is explicit Euler over a strictly
decreasing schedule, with a per-step hook through which the applied
vector can be optimized.

Closed-form oracle fields make the whole machinery exactly verifiable:
the trajectory of (Z - target) / t is the straight interpolation line,
so integration from any start lands on the target.  An oracle's
condition bytes say which part of the scene a patch came from (a
window's box origin, or a dilated sample's pillar maps);
`read_oracle_conditions` reads a whole batch of them at once, and box
sections are cut from the target's `window_boxes` view, as windows are.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, ProviderError, SingularityError
from .lattice import (
    DTYPE,
    DenseBatch,
    DenseLatent,
    PatchBatch,
    Schedule,
    SparseBatch,
    SparseLatent,
    _coord_key,
    first_nonfinite_item,
    stack_patches,
)
# patch_dense and merge_vectors stay importable here because the
# benchmark's trace wraps them as flowcore attributes.
from .patchwork import (
    DilatedPartition,
    PatchGrid,
    SparseWindowPlan,
    Window,
    gather_dense,
    merge_dense,
    merge_vectors,  # noqa: F401
    patch_dense,  # noqa: F401
    restrict_sparse,
    window_boxes,
    window_plan,
)
from .priors import ConditionEmbedding, NormalizationBox, ScenePrior, image_patchify, toy_condition

PatchLatent = DenseLatent | SparseLatent


class VectorFieldProvider:
    """Behavioral interface: evaluate(patch, condition, t) -> same-shape vector.

    The engine calls `evaluate_batch(batch, conditions, t)` once per
    chunk of windows (or dilated samples), in window order.  The batch is
    stacked: a DenseBatch holds its n patches as one (n, K, K, K, C)
    float32 array, and a SparseBatch holds their rows as one (rows, l)
    feature block with their window-local coordinates and per-item
    bounds.  The reply is one float32 array shaped like `batch.values`:
    item n's vector, for `conditions[n]`, sits where item n's values
    sit.  Every item shares the one t.  The engine checks the replies'
    shape and finiteness once per field call.  A batch either answers every
    item or raises; when the failing item is known, the error is a
    ProviderError whose `item` is its index, so the engine can name the
    window.

    The default `evaluate_batch` loops over `evaluate`, one latent per
    item, so a provider that defines only `evaluate` works unchanged
    (a sparse item's vector must keep its patch's coordinates).  A
    provider that answers whole batches defines `evaluate_batch` and can
    answer single patches with `evaluate_one`.

    A window field reaches the provider through `evaluate_windows(Z,
    layout, conditions, t, workers)`, whose default gathers the windows
    and makes the chunked `evaluate_batch` calls; a provider that can
    gather the windows itself (a remote one holding the layout on its
    peer) overrides it.

    The engine quantizes t to float32 before every call (the wire
    protocol carries it as f32, and in-process and remote providers must
    see bit-identical inputs).  Providers that cannot run concurrently
    set `concurrent_safe = False`; the engine then makes one batch call
    at a time.
    """

    concurrent_safe: bool = True

    def evaluate(self, patch: PatchLatent, condition: ConditionEmbedding, t: float) -> PatchLatent:
        raise NotImplementedError

    def evaluate_batch(
        self, batch: PatchBatch, conditions: Sequence[ConditionEmbedding], t: float
    ) -> np.ndarray:
        values = np.empty_like(batch.values)
        dense = isinstance(batch, DenseBatch)
        for n, (patch, condition) in enumerate(zip(batch, conditions)):
            slot = values[n] if dense else values[batch.bounds[n] : batch.bounds[n + 1]]
            try:
                vector = self.evaluate(patch, condition, t)
                if isinstance(vector, SparseLatent):
                    if not (vector.coords is patch.coords or np.array_equal(vector.coords, patch.coords)):
                        raise ProviderError("the vector does not keep its patch's coordinates")
                    reply = vector.features
                else:
                    reply = vector.data
                if np.shape(reply) != slot.shape:
                    raise ProviderError(f"vector of shape {np.shape(reply)} for a patch of shape {slot.shape}")
                slot[...] = reply
            except Exception as exc:
                raise ProviderError(str(exc), item=n) from exc
        return values

    def evaluate_windows(
        self,
        Z: PatchLatent,
        layout: PatchGrid | SparseWindowPlan,
        conditions: Sequence[ConditionEmbedding],
        t: float,
        workers: int = 1,
    ) -> np.ndarray:
        """Every window's vector for Z, stacked as the gathered windows
        stack their values: (windows, K, K, K, C) for a dense Z on its
        PatchGrid, (window rows, l) for a sparse Z on the
        SparseWindowPlan of its coordinates.  `conditions` holds one
        condition per window, in window order.

        The default gathers the windows into one batch and answers it
        with at most `workers` `evaluate_batch` calls on contiguous
        chunks (`_evaluate_chunks`).  The engine checks the reply's shape
        and finiteness and names the failing window; a ProviderError's
        `item`, when set, is a window index.
        """
        batch = layout.gather(Z) if isinstance(layout, SparseWindowPlan) else gather_dense(Z, layout)
        return _evaluate_chunks(self, batch, conditions, t, workers)


def evaluate_one(
    provider: VectorFieldProvider, patch: PatchLatent, condition: ConditionEmbedding, t: float
) -> PatchLatent:
    """The provider's vector for one patch, through `evaluate_batch`."""
    batch = stack_patches([patch])
    return batch.with_values(provider.evaluate_batch(batch, [condition], t))[0]


def _align_sparse_target(target: SparseLatent, coords: np.ndarray) -> np.ndarray:
    """Target features row-aligned to a patch's coordinates (absent -> 0)."""
    if np.array_equal(target.coords, coords):
        return target.features
    out = np.zeros((len(coords), target.dims.l), dtype=DTYPE)
    if len(target) == 0 or len(coords) == 0:
        return out
    tk = _coord_key(target.coords, target.dims)
    pk = _coord_key(coords, target.dims)
    pos = np.searchsorted(tk, pk)
    pos = np.clip(pos, 0, len(tk) - 1)
    hit = tk[pos] == pk
    out[hit] = target.features[pos[hit]]
    return out


# Window-tagged conditions used by oracle providers.  Real models are
# conditioned on image embeddings; an oracle instead needs to know which
# part of the scene a patch came from, so its condition bytes encode the
# gather geometry (a window origin, or pillar maps for dilated samples).
# `read_oracle_conditions` is their one decoder.

_COND_BOX = 1
_COND_PILLARS = 2

BOX_RECORD = np.dtype([("kind", "u1"), ("box", "<u4", (3,))])  # box: x0, y0, K


def box_condition(x0: int, y0: int, K: int) -> ConditionEmbedding:
    return ConditionEmbedding(struct.pack("<B3I", _COND_BOX, x0, y0, K))


def pillar_condition(src_x: np.ndarray, src_y: np.ndarray) -> ConditionEmbedding:
    return pillar_conditions(src_x[None], src_y[None])[0]


def pillar_conditions(src_x: np.ndarray, src_y: np.ndarray) -> list[ConditionEmbedding]:
    """One pillar condition per (K, K) map of the stacked (n, K, K) maps,
    all cast to little-endian u4 at once."""
    payload = struct.pack("<BI", _COND_PILLARS, src_x.shape[-1])
    pairs = np.stack([src_x, src_y], axis=-1).astype("<u4")
    return [ConditionEmbedding(payload + item.tobytes()) for item in pairs]


def read_oracle_conditions(conditions: Sequence[ConditionEmbedding]) -> np.ndarray:
    """The records of oracle `conditions`, read by one `np.frombuffer`:
    BOX_RECORDs, or the pillar records of one side K (kind, K, then the
    (K, K) map of (src_x, src_y) pairs).  No conditions read as no boxes.

    The first condition sets the kind.  The first that is empty, of an
    unknown kind or of the wrong length, or whose kind or side differs
    from the first's, is a ProviderError whose `item` is its index.
    """
    datas = [c.data for c in conditions]
    if not datas:
        return np.empty(0, BOX_RECORD)
    dtype = _record_dtype(datas[0], 0)
    head = datas[0][: 1 if dtype == BOX_RECORD else 5]  # kind, and a pillar map's side
    for n, data in enumerate(datas):
        if len(data) != dtype.itemsize or not data.startswith(head):
            _record_dtype(data, n)
            raise ProviderError("oracle conditions mix kinds or pillar sides", item=n)
    return np.frombuffer(b"".join(datas), dtype)


def _record_dtype(data: bytes, item: int) -> np.dtype:
    """The record that condition `data`, item `item` of its batch, fills."""
    if not data:
        raise ProviderError("empty oracle condition", item=item)
    if data[0] == _COND_BOX:
        if len(data) != BOX_RECORD.itemsize:
            raise ProviderError(f"bad box condition length {len(data)}", item=item)
        return BOX_RECORD
    if data[0] != _COND_PILLARS:
        raise ProviderError(f"unknown oracle condition kind {data[0]}", item=item)
    if len(data) < 5:
        raise ProviderError("truncated pillar condition", item=item)
    K = int.from_bytes(data[1:5], "little")
    if len(data) != 5 + 8 * K * K:
        raise ProviderError(f"bad pillar condition length {len(data)}", item=item)
    return np.dtype([("kind", "u1"), ("K", "<u4"), ("src", "<u4", (K, K, 2))])


def _dense_sections(data: np.ndarray, conditions, shape: tuple, views: dict) -> np.ndarray:
    """The sections of the lattice `data` that oracle `conditions` name,
    stacked in a new (n,) + `shape` array.

    A box (x0, y0, K) names data[x0 : x0 + K, y0 : y0 + K, :K], which
    must lie inside the lattice and have `shape`; boxes are cut by one
    index into `data`'s window-box view of side K (kept in `views`),
    pillar maps by one fancy index.  The first condition that does not
    read, or whose section does not fit, is a ProviderError naming it.
    """
    try:
        records = read_oracle_conditions(conditions)
    except ProviderError as exc:
        _dense_sections(data, conditions[: exc.item], shape, views)  # an earlier misfit comes first
        raise
    X, Y, H, C = data.shape
    K = shape[0]
    if records.dtype != BOX_RECORD:
        src = records["src"].astype(np.intp)
        fits = src.shape[1:3] + (H, C) == shape
        if fits:
            try:
                return data[src[..., 0], src[..., 1]]  # numpy checks that every pillar is inside
            except IndexError:
                pass
        outside = (src >= (X, Y)).reshape(len(src), -1).any(axis=1)
        misfit = [not fits or out for out in outside.tolist()]
    else:
        boxes = records["box"].tolist()
        fits = shape == (K, K, K, C) and K <= H
        # item by item: cheaper than array operations for the few boxes
        # of a window grid, and for the one box of `evaluate`
        misfit = [not fits or side != K or x0 > X - K or y0 > Y - K for x0, y0, side in boxes]
        if True not in misfit:
            if not boxes:
                return np.empty((0,) + shape, dtype=DTYPE)
            view = views.get(K)
            if view is None:
                view = views[K] = window_boxes(data, K)
            if len(boxes) == 1:  # a basic index and a copy, much cheaper than a fancy index
                return view[boxes[0][0], boxes[0][1]][None].copy()
            origins = records["box"][:, :2].astype(np.intp)  # aligned indices index faster
            return view[origins[:, 0], origins[:, 1]]
    n = misfit.index(True)
    raise ProviderError(f"oracle condition does not fit lattice {data.shape} as a patch {shape}", item=n)


# Bounds on GlobalOracleProvider's restriction cache, so queries for
# arbitrary boxes (say, from remote clients) cannot grow it without limit.
SLAT_BOX_ROWS = 16
SLAT_BOX_LIMIT = 1024


@dataclass(frozen=True)
class GlobalOracleProvider(VectorFieldProvider):
    """Oracle over one global scene: answers any window or pillar query
    against the matching restriction of the global target(s), a whole
    batch with one vector operation.

    The dense target's window-box view is kept per box side (a view, so
    it holds no copy of the target).  Sparse restrictions are kept per
    box once computed, up to `SLAT_BOX_ROWS` cached rows per target row
    (the windows of a d = 4 grid hold at most 16) in at most
    `SLAT_BOX_LIMIT` boxes.  Two threads computing the same box store
    equal values.
    """

    ss_target: DenseLatent | None = None
    slat_target: SparseLatent | None = None
    _slat_boxes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _box_views: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def evaluate(self, patch, condition, t):
        """One patch, with the bits `evaluate_batch` gives it in a batch.
        Providers that wrap only `evaluate` call this once per item, so
        it reads the one condition without building a batch."""
        inv = _inverse_time(t)
        if isinstance(patch, SparseLatent):
            (target,) = self._slat_targets((condition,), patch.coords, (0, len(patch)))
            return patch.with_features((patch.features - target) * inv)
        if self.ss_target is None:
            raise ProviderError("no dense target configured")
        target = _dense_sections(self.ss_target.data, (condition,), patch.data.shape, self._box_views)[0]
        with np.errstate(over="ignore"):  # garbage inputs surface as ValueError
            return patch.with_data((patch.data - target) * inv)

    def evaluate_batch(self, batch, conditions, t):
        """(batch - target sections) / t, over the whole stack at once."""
        inv = _inverse_time(t)
        if isinstance(batch, SparseBatch):
            targets = self._slat_targets(conditions, batch.coords, batch.bounds)
            out = np.concatenate(targets) if targets else np.empty_like(batch.features)
        elif self.ss_target is None:
            raise ProviderError("no dense target configured")
        else:
            out = _dense_sections(self.ss_target.data, conditions, batch.dims.dense_shape, self._box_views)
        with np.errstate(over="ignore"):  # garbage inputs surface as non-finite values
            np.subtract(batch.values, out, out=out)
            out *= inv
        return out

    def _slat_targets(self, conditions, coords: np.ndarray, bounds) -> list[np.ndarray]:
        """Per item, the target features of the box its condition names,
        aligned to its rows coords[bounds[n]:bounds[n + 1]]."""
        if self.slat_target is None:
            raise ProviderError("no sparse target configured", item=0)
        try:
            records = read_oracle_conditions(conditions)
        except ProviderError as exc:
            self._slat_targets(conditions[: exc.item], coords, bounds)  # an earlier failure comes first
            raise
        if records.dtype != BOX_RECORD:
            raise ProviderError("sparse oracle expects box conditions", item=0)
        targets = []
        for n, box in enumerate(records["box"].tolist()):
            try:
                target = self._slat_restriction(tuple(box))
                targets.append(_align_sparse_target(target, coords[bounds[n] : bounds[n + 1]]))
            except Exception as exc:
                raise ProviderError(str(exc), item=n) from exc
        return targets

    def _slat_restriction(self, box: tuple[int, int, int]) -> SparseLatent:
        cache = self._slat_boxes
        target_patch = cache.get(box)
        if target_patch is None:
            target_patch = restrict_sparse(self.slat_target, *box)
            # list() copies the values in one step, so an insert from
            # another thread cannot break the iteration.
            cached_rows = sum(map(len, list(cache.values()))) + len(target_patch)
            if len(cache) < SLAT_BOX_LIMIT and cached_rows <= SLAT_BOX_ROWS * len(self.slat_target):
                cache[box] = target_patch
        return target_patch


def _inverse_time(t: float):
    """1 / t as float32; SingularityError where the oracle field is singular."""
    if t <= 0.0:
        raise SingularityError("oracle field is singular at t = 0")
    inv = DTYPE(1.0 / t)
    if not np.isfinite(inv):
        raise SingularityError(f"t = {t} is too small to evaluate")
    return inv


@dataclass(frozen=True)
class BiasedOracleProvider(VectorFieldProvider):
    """Constant-rate relaxation toward a completed dense target.

    Unlike the exact oracle this field is not normalized by t, so the
    amount of correction depends on how much schedule it integrates
    over: longer denoising spans complete more structure.  Used to study
    noising/denoising trade-offs on synthetic scenes.
    """

    ss_target: DenseLatent
    rate: float = 1.0

    def evaluate(self, patch, condition, t):
        return evaluate_one(self, patch, condition, t)

    def evaluate_batch(self, batch, conditions, t):
        if isinstance(batch, SparseBatch):
            raise ProviderError("biased oracle serves dense patches only")
        out = _dense_sections(self.ss_target.data, conditions, batch.dims.dense_shape, {})
        np.subtract(batch.data, out, out=out)
        out *= DTYPE(self.rate)
        return out


class Conditioner:
    """Produces provider conditions for windows and dilated samples.

    A subclass defines `window_condition` and `dilated_condition`.  The
    engine asks for a field call's conditions all at once: a grid's
    window conditions are built once per conditioner, by one
    `window_condition` call per window, and then reused by every call on
    that grid; a partition's conditions are built for each partition.
    """

    def window_condition(self, window: Window) -> ConditionEmbedding:
        raise NotImplementedError

    def dilated_condition(self, partition: DilatedPartition, n: int) -> ConditionEmbedding:
        raise NotImplementedError

    def window_conditions(self, grid: PatchGrid) -> tuple[ConditionEmbedding, ...]:
        """Every window's condition, in window order, built once per grid."""
        # kept in the instance dict, so subclasses need not call __init__
        built = self.__dict__.setdefault("_window_conditions", {})
        conditions = built.get(grid)
        if conditions is None:
            conditions = built[grid] = tuple(self.window_condition(w) for w in grid.windows())
        return conditions

    def dilated_conditions(self, partition: DilatedPartition) -> list[ConditionEmbedding]:
        """Every dilated sample's condition, in sample order."""
        return [self.dilated_condition(partition, n) for n in range(len(partition))]


class OracleConditioner(Conditioner):
    """Window-origin / pillar-map conditions for oracle providers."""

    def window_condition(self, window):
        return box_condition(window.x0, window.y0, window.K)

    def dilated_condition(self, partition, n):
        return pillar_condition(partition.src_x[n], partition.src_y[n])

    def dilated_conditions(self, partition):
        return pillar_conditions(partition.src_x, partition.src_y)


class ImageConditioner(Conditioner):
    """Image-patch conditions: each window sees the embedding of its own
    image cut; dilated samples see the embedding of the whole image."""

    def __init__(self, prior: ScenePrior, grid: PatchGrid, box: NormalizationBox):
        self.prior = prior
        self.grid = grid
        self.box = box
        h, w = prior.shape
        self._voxel_map = box.to_voxels(prior.point_map.reshape(-1, 3), grid.dims).reshape(h, w, 3)
        self._global = toy_condition(prior.image)
        self.empty_windows: list[tuple[int, int]] = []

    def window_condition(self, window):
        """The embedding of the window's image cut; each window whose cut
        is empty is recorded in `empty_windows` once per call."""
        patch = image_patchify(self.prior, window, self.grid, self.box, self._voxel_map)
        if patch.empty:
            # No valid pixel maps into this window; fall back to the
            # whole-image condition rather than an all-black embedding.
            self.empty_windows.append((window.i, window.j))
            return self._global
        return toy_condition(patch)

    def dilated_condition(self, partition, n):
        return self._global


def gamma(t: float, alpha: int) -> float:
    """Mixing schedule 0.5 * cos(pi - pi t)^alpha + 0.5 (alpha odd)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return 0.5 * math.cos(math.pi - math.pi * t) ** alpha + 0.5


def extended_field(
    Z: PatchLatent,
    t: float,
    grid: PatchGrid,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    workers: int = 1,
    plan: SparseWindowPlan | None = None,
) -> PatchLatent:
    """Patch-wise field: evaluate the provider on every window and merge.

    A sparse Z is cut by `plan`, the window plan of its grid and
    coordinates (built here when not given).  The provider gets the
    whole window field in one `evaluate_windows` call (by default one
    stacked gather and at most `workers` batch calls); the reply is
    checked once and merged in the grid's fixed window order, so the
    result does not depend on the worker count; provider failures carry
    the window index.
    """
    windows = grid.windows()
    if isinstance(Z, SparseLatent):
        layout = window_plan(grid, Z.coords, plan)
        bounds = layout.bounds
    else:
        layout, bounds = grid, None
        grid.check_fits(Z.data.shape)
    conditions = conditioner.window_conditions(grid)
    t_eval = float(DTYPE(t))
    values = _checked_call(
        lambda: provider.evaluate_windows(Z, layout, conditions, t_eval, workers),
        window_values_shape(Z, layout), bounds, lambda k: f"patch ({windows[k].i}, {windows[k].j})",
    )
    if isinstance(Z, SparseLatent):
        return layout.merge_features(values)
    return merge_dense(values, grid)


def window_values_shape(Z: PatchLatent, layout: PatchGrid | SparseWindowPlan) -> tuple[int, ...]:
    """The shape of the stacked window vectors of Z on `layout`."""
    if isinstance(layout, SparseWindowPlan):
        return (len(layout.rows), Z.dims.l)
    return (layout.count, layout.K, layout.K, layout.K, Z.data.shape[-1])


def _evaluate_chunks(provider, batch, conditions, t, workers) -> np.ndarray:
    """The provider's vectors for `batch`, unchecked, stacked like
    `batch.values`.

    The items are cut into at most `workers` contiguous chunks, one
    `evaluate_batch` call each; the chunks run on a thread pool only
    when workers > 1 and the provider is concurrent-safe.  A failing
    chunk's ProviderError `item` is re-based to the whole batch.
    """
    count = len(batch)
    chunks = min(workers, count) if workers > 1 and provider.concurrent_safe else 1
    if chunks == 1:
        return provider.evaluate_batch(batch, conditions, t)
    bounds = [count * c // chunks for c in range(chunks + 1)]

    def run(span):
        lo, hi = span
        part = batch[lo:hi]
        try:
            values = np.asarray(provider.evaluate_batch(part, conditions[lo:hi], t))
        except ProviderError as exc:
            if exc.item is None or not 0 <= exc.item < hi - lo:
                raise
            raise ProviderError(str(exc), item=lo + exc.item) from exc
        if values.shape != part.values.shape:
            raise ProviderError(
                f"provider returned values of shape {values.shape} for items {lo} to {hi - 1}, "
                f"expected {part.values.shape}"
            )
        return values

    return np.concatenate(_map_jobs(run, list(zip(bounds, bounds[1:]))))


def _checked_call(call, shape, bounds, name) -> np.ndarray:
    """`call()`'s reply as float32 when it has `shape` and is finite.

    A failure of the call, or a reply of another shape or with a
    non-finite value, is a ProviderError naming the items: item k is
    `name(k)`, and sparse rows belong to items by `bounds` (None for
    dense items stacked along axis 0).
    """
    count = shape[0] if bounds is None else len(bounds) - 1
    where = f"{name(0)} to {name(count - 1)}"
    try:
        values = np.asarray(call())
    except Exception as exc:
        item = exc.item if isinstance(exc, ProviderError) else None
        if item is not None and 0 <= item < count:
            where = name(item)
        raise ProviderError(f"provider failed on {where}: {exc}") from exc
    if values.shape != shape:
        if bounds is None and values.shape[1:] == shape[1:]:
            raise ProviderError(f"provider returned {len(values)} vectors for {where}")
        raise ProviderError(f"provider returned values of shape {values.shape} for {where}, expected {shape}")
    values = np.ascontiguousarray(values, dtype=DTYPE)
    item = first_nonfinite_item(values, bounds)
    if item is not None:
        raise ProviderError(f"provider returned non-finite values for {name(item)}")
    return values


def _map_jobs(fn, jobs):
    """`fn` over `jobs` in order; two or more jobs run one thread each."""
    if len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(fn, jobs))


def dilated_field(
    Z: DenseLatent,
    t: float,
    partition: DilatedPartition,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    workers: int = 1,
) -> DenseLatent:
    """Evaluate the provider on every dilated sample, in at most
    `workers` batch calls, and scatter back."""
    batch = partition.gather_batch(Z)
    conditions = conditioner.dilated_conditions(partition)
    t_eval = float(DTYPE(t))
    values = _checked_call(
        lambda: _evaluate_chunks(provider, batch, conditions, t_eval, workers),
        batch.values.shape, None, lambda n: f"dilated sample {n}",
    )
    return partition.scatter(values)


def mixed_field(
    Z: DenseLatent,
    t: float,
    grid: PatchGrid,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    partition: DilatedPartition,
    alpha: int = 5,
    workers: int = 1,
) -> DenseLatent:
    """(1 - gamma_t) * patch-wise + gamma_t * dilated."""
    g = gamma(t, alpha)
    if g <= 0.0:
        return extended_field(Z, t, grid, provider, conditioner, workers)
    if g >= 1.0:
        return dilated_field(Z, t, partition, provider, conditioner, workers)
    pw = extended_field(Z, t, grid, provider, conditioner, workers)
    dl = dilated_field(Z, t, partition, provider, conditioner, workers)
    g32 = DTYPE(g)
    return Z.with_data((DTYPE(1) - g32) * pw.data + g32 * dl.data)


FieldFn = Callable[[PatchLatent, float], PatchLatent]
StepHook = Callable[[PatchLatent, PatchLatent, float], PatchLatent]


def euler_integrate(
    Z_start: PatchLatent,
    schedule: Schedule,
    field_fn: FieldFn,
    per_step_hook: StepHook | None = None,
) -> PatchLatent:
    """Explicit Euler along the schedule, field at the left endpoint.

    The hook maps the raw field to the applied field at each step (the
    identity by default; the pipeline substitutes its optimizer here).
    """
    Z = Z_start
    for m, (t_m, t_next) in enumerate(schedule.intervals()):
        v = field_fn(Z, t_m)
        if per_step_hook is not None:
            v = per_step_hook(v, Z, t_m)
        dt = DTYPE(t_next - t_m)
        if isinstance(Z, SparseLatent):
            feats = Z.features + dt * v.features
            if not np.isfinite(feats).all():
                raise DivergenceError(f"non-finite state after step {m} (t={t_m:g})", m)
            Z = Z.with_features(feats)
        else:
            data = Z.data + dt * v.data
            if not np.isfinite(data).all():
                raise DivergenceError(f"non-finite state after step {m} (t={t_m:g})", m)
            Z = Z.with_data(data)
    return Z
