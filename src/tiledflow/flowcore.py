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
so integration from any start lands on the target.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DivergenceError, ProviderError, SingularityError
from .lattice import DTYPE, DenseLatent, Schedule, SparseLatent, _coord_key
from .patchwork import (
    DilatedPartition,
    PatchGrid,
    SparseWindowPlan,
    Window,
    merge_vectors,
    patch_dense,
    restrict_sparse,
    window_plan,
)
from .priors import ConditionEmbedding, NormalizationBox, ScenePrior, image_patchify, toy_condition

PatchLatent = DenseLatent | SparseLatent


class VectorFieldProvider:
    """Behavioral interface: evaluate(patch, condition, t) -> same-shape vector.

    The engine calls `evaluate_batch(patches, conditions, t)` once per
    chunk of windows (or dilated samples), in window order: item n of the
    returned list is the vector of `patches[n]` under `conditions[n]`,
    and every item shares the one t.  A batch either answers every item
    or raises; when the failing item is known, the error is a
    ProviderError whose `item` is its index, so the engine can name the
    window.  The default loops over `evaluate`, so a provider that
    defines only `evaluate` works unchanged.

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
        self, patches: list[PatchLatent], conditions: list[ConditionEmbedding], t: float
    ) -> list[PatchLatent]:
        vectors = []
        for n, (patch, condition) in enumerate(zip(patches, conditions)):
            try:
                vectors.append(self.evaluate(patch, condition, t))
            except Exception as exc:
                raise ProviderError(str(exc), item=n) from exc
        return vectors


class ZeroFieldProvider(VectorFieldProvider):
    """Returns the zero vector; the flow becomes the identity."""

    def evaluate(self, patch, condition, t):
        if isinstance(patch, SparseLatent):
            return patch.with_features(np.zeros_like(patch.features))
        return patch.with_data(np.zeros_like(patch.data))


@dataclass(frozen=True)
class OracleField(VectorFieldProvider):
    """Closed-form field (Z - target) / t toward one fixed patch target."""

    target: PatchLatent

    def evaluate(self, patch, condition, t):
        if t <= 0.0:
            raise SingularityError("oracle field is singular at t = 0")
        inv = DTYPE(1.0 / t)
        if isinstance(patch, SparseLatent):
            aligned = _align_sparse_target(self.target, patch)
            return patch.with_features((patch.features - aligned) * inv)
        if patch.data.shape != self.target.data.shape:
            raise DimensionError(
                f"patch shape {patch.data.shape} != target {self.target.data.shape}"
            )
        return patch.with_data((patch.data - self.target.data) * inv)


def _align_sparse_target(target: SparseLatent, patch: SparseLatent) -> np.ndarray:
    """Target features row-aligned to the patch's coordinates (absent -> 0)."""
    if np.array_equal(target.coords, patch.coords):
        return target.features
    out = np.zeros_like(patch.features)
    if len(target) == 0 or len(patch) == 0:
        return out
    tk = _coord_key(target.coords, target.dims)
    pk = _coord_key(patch.coords, target.dims)
    pos = np.searchsorted(tk, pk)
    pos = np.clip(pos, 0, len(tk) - 1)
    hit = tk[pos] == pk
    out[hit] = target.features[pos[hit]]
    return out


# Window-tagged conditions used by oracle providers.  Real models are
# conditioned on image embeddings; an oracle instead needs to know which
# part of the scene a patch came from, so its condition bytes encode the
# gather geometry (a window origin, or pillar maps for dilated samples).

_COND_BOX = 1
_COND_PILLARS = 2


def box_condition(x0: int, y0: int, K: int) -> ConditionEmbedding:
    return ConditionEmbedding(struct.pack("<B3I", _COND_BOX, x0, y0, K))


def pillar_condition(src_x: np.ndarray, src_y: np.ndarray) -> ConditionEmbedding:
    K = src_x.shape[0]
    payload = struct.pack("<BI", _COND_PILLARS, K)
    pairs = np.stack([src_x, src_y], axis=-1).astype("<u4")
    return ConditionEmbedding(payload + pairs.tobytes())


def decode_oracle_condition(cond: ConditionEmbedding):
    data = cond.data
    if len(data) < 1:
        raise ProviderError("empty oracle condition")
    kind = data[0]
    if kind == _COND_BOX:
        if len(data) != 13:
            raise ProviderError(f"bad box condition length {len(data)}")
        x0, y0, K = struct.unpack_from("<3I", data, 1)
        return ("box", int(x0), int(y0), int(K))
    if kind == _COND_PILLARS:
        if len(data) < 5:
            raise ProviderError("truncated pillar condition")
        (K,) = struct.unpack_from("<I", data, 1)
        if len(data) != 5 + 8 * K * K:
            raise ProviderError(f"bad pillar condition length {len(data)}")
        pairs = np.frombuffer(data, dtype="<u4", count=2 * K * K, offset=5).reshape(K, K, 2)
        return ("pillars", pairs[:, :, 0].astype(np.int64), pairs[:, :, 1].astype(np.int64))
    raise ProviderError(f"unknown oracle condition kind {kind}")


# Bounds on GlobalOracleProvider's restriction cache, so queries for
# arbitrary boxes (say, from remote clients) cannot grow it without limit.
SLAT_BOX_ROWS = 16
SLAT_BOX_LIMIT = 1024


@dataclass(frozen=True)
class GlobalOracleProvider(VectorFieldProvider):
    """Oracle over one global scene: answers any window or pillar query
    against the matching restriction of the global target(s).

    Sparse restrictions are kept per box once computed, up to
    `SLAT_BOX_ROWS` cached rows per target row (the windows of a d = 4
    grid hold at most 16) in at most `SLAT_BOX_LIMIT` boxes.  Two threads
    computing the same box store equal values.
    """

    ss_target: DenseLatent | None = None
    slat_target: SparseLatent | None = None
    _slat_boxes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def evaluate(self, patch, condition, t):
        if t <= 0.0:
            raise SingularityError("oracle field is singular at t = 0")
        inv = DTYPE(1.0 / t)
        if not np.isfinite(inv):
            raise SingularityError(f"t = {t} is too small to evaluate")
        if isinstance(patch, SparseLatent):
            if self.slat_target is None:
                raise ProviderError("no sparse target configured")
            kind = decode_oracle_condition(condition)
            if kind[0] != "box":
                raise ProviderError("sparse oracle expects a box condition")
            target_patch = self._slat_restriction(kind[1:])
            aligned = _align_sparse_target(target_patch, patch)
            return patch.with_features((patch.features - aligned) * inv)
        if self.ss_target is None:
            raise ProviderError("no dense target configured")
        target = _dense_restriction(self.ss_target, condition, patch.data.shape)
        with np.errstate(over="ignore"):  # garbage inputs surface as ValueError
            return patch.with_data((patch.data - target) * inv)

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


def _dense_restriction(target: DenseLatent, condition, shape) -> np.ndarray:
    """The box or pillar section of `target` that `condition` names."""
    kind = decode_oracle_condition(condition)
    data = target.data
    if kind[0] == "box":
        _, x0, y0, K = kind
        sub = data[x0 : x0 + K, y0 : y0 + K, :K]
    else:
        _, src_x, src_y = kind
        sub = data[src_x, src_y, :, :]
    if sub.shape != shape:
        raise ProviderError(f"oracle restriction {sub.shape} != patch {shape}")
    return sub


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
        sub = _dense_restriction(self.ss_target, condition, patch.data.shape)
        return patch.with_data((patch.data - sub) * DTYPE(self.rate))


class Conditioner:
    """Produces provider conditions for windows and dilated samples."""

    def window_condition(self, window: Window) -> ConditionEmbedding:
        raise NotImplementedError

    def dilated_condition(self, partition: DilatedPartition, n: int) -> ConditionEmbedding:
        raise NotImplementedError


class OracleConditioner(Conditioner):
    """Window-origin / pillar-map conditions for oracle providers."""

    def window_condition(self, window):
        return box_condition(window.x0, window.y0, window.K)

    def dilated_condition(self, partition, n):
        return pillar_condition(partition.src_x[n], partition.src_y[n])


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
        self._cache: dict[tuple[int, int], ConditionEmbedding] = {}
        self.empty_windows: list[tuple[int, int]] = []

    def window_condition(self, window):
        key = (window.i, window.j)
        if key not in self._cache:
            patch = image_patchify(self.prior, window, self.grid, self.box, self._voxel_map)
            if patch.empty:
                # No valid pixel maps into this window; fall back to the
                # whole-image condition rather than an all-black embedding.
                self.empty_windows.append(key)
                self._cache[key] = self._global
            else:
                self._cache[key] = toy_condition(patch)
        return self._cache[key]

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
    coordinates (built here when not given).  The windows go to the
    provider in at most `workers` batches (see `_evaluate`) and merge in
    the grid's fixed window order, so the result does not depend on the
    worker count; provider failures carry the window index.
    """
    windows = list(grid.windows())
    if isinstance(Z, SparseLatent):
        plan = window_plan(grid, Z.coords, plan)
        patches = plan.gather(Z)
    else:
        patches = [patch_dense(Z, w) for w in windows]
    conditions = [conditioner.window_condition(w) for w in windows]
    vectors = _evaluate(
        provider, patches, conditions, t, workers,
        lambda k: f"patch ({windows[k].i}, {windows[k].j})",
    )
    del patches  # free the inputs before the merge allocates its own
    results = {(w.i, w.j): v for w, v in zip(windows, vectors)}
    return merge_vectors(results, grid, plan)


def _evaluate(provider, patches, conditions, t, workers, name) -> list:
    """The provider's vectors for `patches`, in order.

    The items are cut into at most `workers` contiguous chunks, one
    `evaluate_batch` call each; the chunks run on a thread pool only
    when workers > 1 and the provider is concurrent-safe.  `name(k)`
    names item k in errors.
    """
    t_eval = float(DTYPE(t))
    count = len(patches)
    chunks = min(workers, count) if workers > 1 and provider.concurrent_safe else 1
    bounds = [count * c // chunks for c in range(chunks + 1)]

    def run(span):
        lo, hi = span
        try:
            vectors = provider.evaluate_batch(patches[lo:hi], conditions[lo:hi], t_eval)
        except Exception as exc:
            item = exc.item if isinstance(exc, ProviderError) else None
            if item is not None and 0 <= item < hi - lo:
                where = name(lo + item)
            else:
                where = f"{name(lo)} to {name(hi - 1)}"
            raise ProviderError(f"provider failed on {where}: {exc}") from exc
        if len(vectors) != hi - lo:
            raise ProviderError(
                f"provider returned {len(vectors)} vectors for {name(lo)} to {name(hi - 1)}"
            )
        return vectors

    spans = list(zip(bounds, bounds[1:]))
    return [v for vectors in _map_jobs(run, spans) for v in vectors]


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
    """Evaluate the provider on every dilated sample and scatter back."""
    samples = range(len(partition))
    vectors = _evaluate(
        provider,
        [partition.gather(Z, n) for n in samples],
        [conditioner.dilated_condition(partition, n) for n in samples],
        t, workers, lambda n: f"dilated sample {n}",
    )
    return partition.scatter(vectors)


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
