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
window's box origin, or a dilated sample's pillar maps), and
`read_oracle_conditions` is their one decoder.  The oracles cut one
target section per condition: a box by one slice, pillar maps by one
fancy index.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, ProviderError, SingularityError
from .lattice import (
    DTYPE,
    DenseBatch,
    DenseLatent,
    PatchBatch,
    Schedule,
    SparseLatent,
    _coord_key,
    first_nonfinite_item,
)
from .patchwork import (
    AgreedField,
    DilatedPartition,
    PatchGrid,
    SparseWindowPlan,
    Window,
    restrict_sparse,
)
from .priors import ConditionEmbedding, NormalizationBox, ScenePrior, image_patchify, pixel_voxels, toy_condition

PatchLatent = DenseLatent | SparseLatent


class VectorFieldProvider:
    """Behavioral interface: evaluate(patch, condition, t) -> same-shape vector.

    The engine makes one provider call per field, `evaluate_windows(Z,
    layout, conditions, t)` (below), on one of three layouts: a dense
    window field's `PatchGrid`, a sparse window field's
    `SparseWindowPlan`, or a dilated field's `DilatedPartition`.  Its
    default gathers the windows (or samples) into one stacked batch and
    makes one `evaluate_batch(batch, conditions, t)` call.  A DenseBatch
    holds its n patches as one (n, K, K, K, C) float32 array, and a
    SparseBatch holds their rows as one (rows, l) feature block with
    their window-local coordinates and per-item bounds.  The reply is
    one float32 array shaped like `batch.values`: item n's vector, for
    `conditions[n]`, sits where item n's values sit.  Every item shares
    the one t.  The engine checks each field call's reply shape, and
    reads its finiteness off the merged (or scattered) field, which
    every reply value reaches; for a sparse field, that is the merged
    rows.  Only a reply that fails there is scanned, to name its first
    non-finite item.  A batch either answers every item or raises; when
    the failing item is known, the error is a ProviderError whose `item`
    is its index, so the engine can name the window.

    The default `evaluate_batch` loops over `evaluate`, one latent per
    item, so a provider that defines only `evaluate` works unchanged
    (a sparse item's vector must keep its patch's coordinates).  A
    provider that answers whole batches defines `evaluate_batch`, and
    may answer a single patch as a batch of one.  Every `evaluate_batch`
    first refuses a condition count other than the batch's item count
    (`check_condition_count`).

    The engine quantizes t to float32 before every call (the wire
    protocol carries it as f32, and in-process and remote providers must
    see bit-identical inputs).  The engine starts no threads.
    `concurrent_safe` states whether the provider may be called from
    several threads at once, as a `ProviderServer` calls it; the
    library itself no longer reads it.
    """

    concurrent_safe: bool = True

    def evaluate(self, patch: PatchLatent, condition: ConditionEmbedding, t: float) -> PatchLatent:
        raise NotImplementedError

    def evaluate_batch(
        self, batch: PatchBatch, conditions: Sequence[ConditionEmbedding], t: float
    ) -> np.ndarray:
        check_condition_count(batch, conditions)
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
        layout: PatchGrid | SparseWindowPlan | DilatedPartition,
        conditions: Sequence[ConditionEmbedding],
        t: float,
    ) -> np.ndarray | AgreedField:
        """Every window's (or dilated sample's) vector for Z, stacked as
        the gathered items stack their values: (windows, K, K, K, C) for
        a dense Z on its PatchGrid, (window rows, l) for a sparse Z on the
        SparseWindowPlan of its coordinates, and (samples, K, K, K, C)
        for a dense Z on a DilatedPartition.  `conditions` holds one
        condition per item, in item order.

        A provider may instead answer one field shaped like `Z.values`,
        as an `AgreedField`: the field the layout's `combine` would give,
        which `layout_field` takes as Z's new values (see `AgreedField`
        for the contract).

        The default gathers the items into one batch (`layout.gather`)
        and answers it with one `evaluate_batch` call.  The engine checks
        the reply's shape and finiteness (`layout_field`) and names the
        failing window or sample; a ProviderError's `item`, when set, is
        its index.
        """
        return self.evaluate_batch(layout.gather(Z), conditions, t)


def check_condition_count(batch: PatchBatch, conditions: Sequence[ConditionEmbedding]) -> None:
    """ProviderError unless `conditions` holds one condition per item of
    `batch`."""
    if len(conditions) != len(batch):
        raise ProviderError(f"{len(conditions)} conditions for a batch of {len(batch)} items")


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


class PillarConditions(Sequence):
    """The pillar conditions of stacked (n, K, K) maps, one per map: kind
    2, the side K, then the map's (src_x, src_y) pairs as little-endian
    u4.  A read-only sequence that holds the maps themselves and encodes
    an item only when it is read, so an oracle that knows the maps (see
    `GlobalOracleProvider`) reads no bytes, and the wire reads each item
    once.  A slice reads its items into a list."""

    def __init__(self, src_x: np.ndarray, src_y: np.ndarray):
        self.src_x, self.src_y = src_x, src_y
        self._head = struct.pack("<BI", _COND_PILLARS, src_x.shape[-1])

    def __len__(self) -> int:
        return len(self.src_x)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[k] for k in range(*n.indices(len(self)))]
        pairs = np.stack([self.src_x[n], self.src_y[n]], axis=-1).astype("<u4")
        return ConditionEmbedding(self._head + pairs.tobytes())


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


def _dense_section(data: np.ndarray, condition: ConditionEmbedding, shape: tuple) -> np.ndarray:
    """The section of the lattice `data` that oracle `condition` names, of
    `shape`: a view for a box, a new array for a pillar map.

    A box (x0, y0, K) names data[x0 : x0 + K, y0 : y0 + K, :K], which
    must lie inside the lattice and have `shape`; a pillar map names
    data[src_x, src_y] by one fancy index, and every pillar must lie
    inside the lattice.  A condition that does not read, or whose section
    does not fit, is a ProviderError.
    """
    records = read_oracle_conditions((condition,))
    X, Y, H, C = data.shape
    K = shape[0]
    if records.dtype == BOX_RECORD:
        ((x0, y0, side),) = records["box"].tolist()
        if shape == (K, K, K, C) and side == K <= H and x0 <= X - K and y0 <= Y - K:
            return data[x0 : x0 + K, y0 : y0 + K, :K]
    else:
        src = records["src"][0].astype(np.intp)
        if src.shape[:2] + (H, C) == shape:
            try:
                return data[src[..., 0], src[..., 1]]  # numpy checks that every pillar is inside
            except IndexError:
                pass
    raise ProviderError(f"oracle condition does not fit lattice {data.shape} as a patch {shape}")


# Bounds on GlobalOracleProvider's restriction cache, so queries for
# arbitrary boxes (say, from remote clients) cannot grow it without limit.
SLAT_BOX_ROWS = 16
SLAT_BOX_LIMIT = 1024


@dataclass(frozen=True)
class GlobalOracleProvider(VectorFieldProvider):
    """Oracle over one global scene: answers any window or pillar query
    against the matching section of the global target(s), one condition
    at a time (`_section`).  A batch cuts each item's section into one
    array, then subtracts and scales that array whole.

    Sparse restrictions are kept per box once computed, up to
    `SLAT_BOX_ROWS` cached rows per target row (the windows of a d = 4
    grid hold at most 16) in at most `SLAT_BOX_LIMIT` boxes.  Two
    threads computing the same box store equal values.

    A field whose conditions are its layout's own (a grid's or a plan's
    window boxes, a partition's pillar maps) cuts no section: every item
    is then the restriction of the one field (Z - target) / t, which is
    answered whole, as an `AgreedField`.  The target aligned to a plan's
    coordinates and a grid's box conditions are kept per layout, weakly,
    so the layouts of clients served over the wire leave nothing behind.
    A partition's pillar maps change every step: `PillarConditions`
    holding the partition's own (read-only) maps are its own without a
    read, and any other conditions, such as the decoded list a served
    oracle gets, are decoded and compared.
    """

    ss_target: DenseLatent | None = None
    slat_target: SparseLatent | None = None
    _slat_boxes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _plan_targets: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, compare=False, repr=False
    )
    _grid_boxes: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, compare=False, repr=False
    )

    def evaluate(self, patch, condition, t):
        """(patch - its target section) / t, with the bits `evaluate_batch`
        gives it in a batch."""
        inv = _inverse_time(t)
        target = self._section(patch, condition)
        if isinstance(patch, SparseLatent):
            return patch.with_features((patch.features - target) * inv)
        with np.errstate(over="ignore"):  # garbage inputs surface as ValueError
            return patch.with_data((patch.data - target) * inv)

    def evaluate_batch(self, batch, conditions, t):
        """(batch - target sections) / t: the items' sections are cut into
        one array, which is then subtracted and scaled whole.  A section
        that cannot be cut is a ProviderError naming its item."""
        check_condition_count(batch, conditions)
        inv = _inverse_time(t)
        out = np.empty_like(batch.values)
        dense = isinstance(batch, DenseBatch)
        for n, (patch, condition) in enumerate(zip(batch, conditions)):
            try:
                out[n if dense else slice(batch.bounds[n], batch.bounds[n + 1])] = self._section(patch, condition)
            except Exception as exc:
                raise ProviderError(str(exc), item=n) from exc
        with np.errstate(over="ignore"):  # garbage inputs surface as non-finite values
            np.subtract(batch.values, out, out=out)
            out *= inv
        return out

    def evaluate_windows(self, Z, layout, conditions, t):
        """On the layout's own conditions, (Z - target) / t over Z's whole
        field, in one array (`AgreedField`): each item's vector is its cut,
        with the per-item bits, as the arithmetic is elementwise.  On a
        grid the field gets +0.0 in place, as the grid's merge of those
        cuts would give it.  Anything else takes the default path."""
        target = self._own_target(Z, layout, conditions)
        if target is None:
            return super().evaluate_windows(Z, layout, conditions, t)
        inv = _inverse_time(t)
        with np.errstate(over="ignore"):  # garbage inputs surface as non-finite values
            out = np.subtract(Z.values, target)
            out *= inv
        if isinstance(layout, PatchGrid):
            out += DTYPE(0.0)  # -0.0 + 0.0 is +0.0
        return AgreedField(out)

    def _own_target(self, Z, layout, conditions) -> np.ndarray | None:
        """The target field shaped like Z's, when `conditions` are
        `layout`'s own and every item fits the target; else None."""
        if isinstance(layout, SparseWindowPlan):
            if self.slat_target is None or self.slat_target.dims != layout.grid.dims:
                return None
            target = self._plan_targets.get(layout)
            if target is None:
                target = self._plan_targets[layout] = _align_sparse_target(self.slat_target, layout.coords)
            own = Z.values.shape == target.shape and self._own_boxes(layout.grid, conditions)
        else:
            if self.ss_target is None or layout.K != layout.dims.N:
                return None
            target = self.ss_target.data
            if Z.values.shape != target.shape or layout.dims.dense_shape != target.shape:
                return None
            if isinstance(layout, PatchGrid):
                own = self._own_boxes(layout, conditions)
            else:
                own = _own_pillars(layout, conditions)
        return target if own else None

    def _own_boxes(self, grid: PatchGrid, conditions) -> bool:
        """Whether `conditions` are the box conditions of `grid`'s windows."""
        boxes = self._grid_boxes.get(grid)
        if boxes is None:
            boxes = self._grid_boxes[grid] = [box_condition(w.x0, w.y0, w.K).data for w in grid.windows()]
        try:
            return [c.data for c in conditions] == boxes
        except AttributeError:  # no oracle conditions: the default path reports them
            return False

    def _section(self, patch, condition) -> np.ndarray:
        """The target section that oracle `condition` names for `patch`,
        shaped like `patch.values`: a dense section (`_dense_section`), or
        the sparse target's restriction to a box, row-aligned to the
        patch's coordinates.  A sparse box must be of the patch side M
        and inside the grid, as a dense box must."""
        if isinstance(patch, DenseLatent):
            if self.ss_target is None:
                raise ProviderError("no dense target configured")
            return _dense_section(self.ss_target.data, condition, patch.data.shape)
        if self.slat_target is None:
            raise ProviderError("no sparse target configured")
        records = read_oracle_conditions((condition,))
        if records.dtype != BOX_RECORD:
            raise ProviderError("sparse oracle expects box conditions")
        ((x0, y0, side),) = records["box"].tolist()
        X, Y, H = self.slat_target.dims.grid_shape
        M = patch.dims.M
        if side != M or M > H or x0 > X - M or y0 > Y - M:
            raise ProviderError(f"box condition does not fit grid {(X, Y, H)} as a patch {M}")
        return _align_sparse_target(self._slat_restriction((x0, y0, side)), patch.coords)

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


def _own_pillars(partition: DilatedPartition, conditions) -> bool:
    """Whether `conditions` are the pillar conditions of `partition`'s
    samples: `PillarConditions` holding the partition's own maps, or
    conditions whose decoded maps equal them."""
    if isinstance(conditions, PillarConditions):
        if conditions.src_x is partition.src_x and conditions.src_y is partition.src_y:
            return True
    try:
        records = read_oracle_conditions(conditions)
    except ProviderError:
        return False
    if records.dtype == BOX_RECORD or len(records) != len(partition):
        return False
    src = records["src"]
    return np.array_equal(src[..., 0], partition.src_x) and np.array_equal(src[..., 1], partition.src_y)


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
        if isinstance(patch, SparseLatent):
            raise ProviderError("biased oracle serves dense patches only")
        target = _dense_section(self.ss_target.data, condition, patch.data.shape)
        return patch.with_data((patch.data - target) * DTYPE(self.rate))


class Conditioner:
    """Produces provider conditions for windows and dilated samples.

    A subclass defines the hooks `window_condition` and
    `dilated_conditions`.  The engine asks for a field call's conditions
    all at once: a grid's window conditions are built once per
    conditioner, by one `window_condition` call per window, and then
    reused by every call on that grid; a partition's conditions are
    built for each partition, as any sequence of conditions.
    """

    def window_condition(self, window: Window) -> ConditionEmbedding:
        raise NotImplementedError

    def window_conditions(self, grid: PatchGrid) -> tuple[ConditionEmbedding, ...]:
        """Every window's condition, in window order, built once per grid."""
        # kept in the instance dict, so subclasses need not call __init__
        built = self.__dict__.setdefault("_window_conditions", {})
        conditions = built.get(grid)
        if conditions is None:
            conditions = built[grid] = tuple(self.window_condition(w) for w in grid.windows())
        return conditions

    def dilated_conditions(self, partition: DilatedPartition) -> Sequence[ConditionEmbedding]:
        """Every dilated sample's condition, in sample order."""
        raise NotImplementedError


class OracleConditioner(Conditioner):
    """Window-origin / pillar-map conditions for oracle providers."""

    def window_condition(self, window):
        return box_condition(window.x0, window.y0, window.K)

    def dilated_conditions(self, partition):
        return PillarConditions(partition.src_x, partition.src_y)


class ImageConditioner(Conditioner):
    """Image-patch conditions: each window sees the embedding of its own
    image cut; dilated samples see the embedding of the whole image."""

    def __init__(self, prior: ScenePrior, grid: PatchGrid, box: NormalizationBox):
        self.prior = prior
        self.grid = grid
        self.box = box
        self._voxel_map = pixel_voxels(prior, box, grid.dims)
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

    def dilated_conditions(self, partition):
        return [self._global] * len(partition)


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
    plan: SparseWindowPlan | None = None,
) -> PatchLatent:
    """Patch-wise field: evaluate the provider on every window and merge.

    A sparse Z is cut by `plan`, the window plan of its grid and
    coordinates (built here when not given; a plan of another grid or
    coordinate set is a ConfigError), and a dense Z must be the lattice
    the grid tiles (else a DimensionError).  The field is `layout_field`
    of Z on that layout, with the grid's window conditions.  A Z built
    on `plan.coords` itself skips the coordinate compare.
    """
    if isinstance(Z, SparseLatent):
        if plan is None:
            plan = SparseWindowPlan(grid, Z.coords)
        elif plan.grid != grid or not (plan.coords is Z.coords or np.array_equal(plan.coords, Z.coords)):
            raise ConfigError("window plan was built for another grid or coordinate set")
        layout = plan
    else:
        lattice = (grid.dims.a * grid.K, grid.dims.b * grid.K, grid.K, grid.dims.C)
        if Z.data.shape != lattice:
            raise DimensionError(f"windows of side {grid.K} tile lattice {lattice}, not {Z.data.shape}")
        layout = grid
    return layout_field(Z, layout, provider, conditioner.window_conditions(grid), t)


def layout_field(
    Z: PatchLatent,
    layout: PatchGrid | SparseWindowPlan | DilatedPartition,
    provider: VectorFieldProvider,
    conditions: Sequence[ConditionEmbedding],
    t: float,
) -> PatchLatent:
    """The field of Z on `layout`, with one condition per item in item
    order: a PatchGrid's windows, a SparseWindowPlan's windows (of the
    sparse Z's coordinates), or a DilatedPartition's samples.

    The provider gets the whole field in one `evaluate_windows` call at
    t quantized to float32 (by default one stacked gather and one batch
    call).  A reply in window order must have `layout.batch_shape(Z)`,
    and is combined in the layout's fixed order (`layout.combine`); an
    `AgreedField` must have the shape of `Z.values`, and is taken as Z's
    new values.  A failure of the call, or a reply of another shape or
    with a non-finite value, is a ProviderError naming the items: item k
    is `layout.item_name(k)`, and the error's `item` is k when one item
    is named.  Finiteness is read off the field: every reply value
    reaches it, through a float64 sum that cannot overflow or a copy,
    and the latent's constructor rejects a non-finite value with a
    ValueError.  Only then is the reply, in window order, scanned for
    the first item holding one (sparse rows belong to windows by the
    plan's `bounds`).  `extended_field`, `dilated_field` and the XFP1
    server's field answer all take this one path.
    """
    name, count = layout.item_name, layout.count
    where = f"{name(0)} to {name(count - 1)}"
    try:
        reply = provider.evaluate_windows(Z, layout, conditions, float(DTYPE(t)))
        agreed = isinstance(reply, AgreedField)
        values = np.asarray(reply.values if agreed else reply)
    except Exception as exc:
        item = exc.item if isinstance(exc, ProviderError) else None
        if item is not None and 0 <= item < count:
            where = name(item)
        else:
            item = None
        raise ProviderError(f"provider failed on {where}: {exc}", item) from exc
    shape = Z.values.shape if agreed else layout.batch_shape(Z)
    if values.shape != shape:
        if layout.bounds is None and not agreed and values.shape[1:] == shape[1:]:
            raise ProviderError(f"provider returned {len(values)} vectors for {where}")
        raise ProviderError(f"provider returned values of shape {values.shape} for {where}, expected {shape}")
    with np.errstate(invalid="ignore"):  # inf - inf in a merge sum
        try:
            if agreed:
                return Z.with_values(values)
            return layout.combine(np.ascontiguousarray(values, dtype=DTYPE))
        except ValueError:
            ordered = layout.window_order(values) if agreed else values
            item = first_nonfinite_item(np.asarray(ordered, dtype=DTYPE), layout.bounds)
            if item is None:
                raise
    raise ProviderError(f"provider returned non-finite values for {name(item)}", item)


def dilated_field(
    Z: DenseLatent,
    t: float,
    partition: DilatedPartition,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
) -> DenseLatent:
    """`layout_field` of Z on the dilated samples of `partition` (by
    default one gather, one batch call and one scatter)."""
    if (partition.dims.dense_shape, partition.K) != (Z.data.shape, Z.dims.N):
        raise DimensionError(f"dilated samples of side {partition.K} do not fit lattice {Z.data.shape}")
    return layout_field(Z, partition, provider, conditioner.dilated_conditions(partition), t)


def mixed_field(
    Z: DenseLatent,
    t: float,
    grid: PatchGrid,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    partition: DilatedPartition,
    alpha: int = 5,
) -> DenseLatent:
    """(1 - gamma_t) * patch-wise + gamma_t * dilated."""
    g = gamma(t, alpha)
    if g <= 0.0:
        return extended_field(Z, t, grid, provider, conditioner)
    if g >= 1.0:
        return dilated_field(Z, t, partition, provider, conditioner)
    pw = extended_field(Z, t, grid, provider, conditioner)
    dl = dilated_field(Z, t, partition, provider, conditioner)
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
        try:  # the latent's constructor is the one finiteness check
            Z = Z.with_values(Z.values + DTYPE(t_next - t_m) * v.values)
        except ValueError as exc:
            raise DivergenceError(f"non-finite state after step {m} (t={t_m:g})", m) from exc
    return Z
