"""Per-timestep vector optimization and its differentiable objectives.

Instead of stepping along the raw merged field, the pipeline descends a
scene-prior loss from it for a few Adam steps.  Two objectives are
built in, both with analytic gradients (everything on the path is
linear except the sigmoid and SSIM):

* a structure loss that keeps prior voxels from decoding to empty,
  summed over prior points so denser clouds weigh more;
* a rendering loss on the orthographic projection of the denoised
  feature field, L2 minus SSIM against a target image.

Objectives evaluate in float64 so gradients can be validated against
central finite differences.

Every Adam step of every denoising step calls an objective again, and
only v_hat changes within a stage.  What is fixed is planned once per
stage: `PriorCells` checks the prior points and reduces them to their
unique lattice cells, and `RenderTarget` holds each voxel's image
column, the column counts and the target image's SSIM window
statistics.  A call then gathers, renders and filters only what depends
on v_hat.  Planned and unplanned calls give the same bits.  The
per-pixel sums use `np.bincount`, which adds its weights one at a time
in input order in float64, as the `np.add.at` scatter did
(`np.add.reduceat` would not: it adds a segment's head to the sum of
its tail).  The structure loss's gradient adds each cell's one value
once per point of the cell, so each cell's sum is c additions of the
same value from 0.0, c its point count, whatever the point order:
`PriorCells` lists its cells by descending count, and
`PriorCells.point_sums` makes the k-th additions of all cells that
have a k-th point as one slice add, at (largest count) slice adds per
call instead of one bincount weight per point.  The structure loss
still averages n per-point values, by one gather in point order and
numpy's pairwise sum.

Within one Euler step Z_t and t are fixed too, and each objective has
gradient on only part of the vector: the structure loss on the prior's
cells, the rendering loss on feature channels 0-2.  `PriorCells.at` and
`RenderTarget.at` bind a plan to one step, taking Z_t at that support
in float64 once, and name the support as `index`.  Outside it the
full-vector gradient is -0.0, and an Adam step on it from zero moments
moves nothing, so the pipeline runs Adam on `vec[index]` alone.

Within the support the gradient takes few distinct values: every
voxel of an image column gets -t * d_img[pixel] / count[pixel], and
every channel of a cell the same value.  A binding's `classes` gives
each support row its class, and given a binding an objective returns
one gradient row per class (one column per cell).  From zero moments,
Adam's moments and steps depend only on the gradient history, so
`optimize_vector` keeps them per class and subtracts each row's class
step through one `take`, with the bits per-entry Adam gives.  The
full-vector call spreads the class gradient over the support, -0.0
elsewhere.  A run's final evaluation binds with `need_grad=False`: the
same code computes the loss, and no gradient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, OptimizationError
from .lattice import DTYPE, DenseLatent, Dims, SparseLatent, int_coords
from .structedit import ToyCodec


def is_finite_real(value) -> bool:
    """Whether `value` is a finite real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_reals(obj, names):
    for name in names:
        if not is_finite_real(getattr(obj, name)):
            raise ValueError(f"{name} must be a finite real number, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class AdamParams:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    steps: int = 5

    def __post_init__(self):
        _check_reals(self, ("lr", "beta1", "beta2", "eps"))
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not isinstance(self.steps, int) or isinstance(self.steps, bool) or self.steps < 0:
            raise ValueError(f"steps must be an integer >= 0, got {self.steps!r}")


@dataclass
class OptimState:
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "OptimState":
        return cls(np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64))


def adam_step(value: np.ndarray, grad: np.ndarray, state: OptimState, params: AdamParams):
    """One bias-corrected Adam update; returns (new value, state)."""
    if value.shape != grad.shape:
        raise ValueError(f"value shape {value.shape} != grad shape {grad.shape}")
    return value - _adam_delta(grad, state, params), state


def _adam_delta(grad: np.ndarray, state: OptimState, params: AdamParams) -> np.ndarray:
    """Advance `state` by one gradient; returns the step to subtract.

    The moments are new arrays; the other intermediates share two
    buffers, written with `out=`, in the textbook operation order.
    """
    if not np.isfinite(grad).all():
        raise OptimizationError("non-finite gradient in Adam step")
    grad = grad.astype(np.float64, copy=False)
    state.step += 1
    t = state.step
    b1, b2 = params.beta1, params.beta2
    tmp = np.empty(grad.shape)
    m = np.multiply(b1, state.m, out=np.empty(grad.shape))
    m += np.multiply(1.0 - b1, grad, out=tmp)
    v = np.multiply(b2, state.v, out=np.empty(grad.shape))
    v += np.multiply(np.multiply(1.0 - b2, grad, out=tmp), grad, out=tmp)
    state.m, state.v = m, v
    denom = np.divide(v, 1.0 - b2**t, out=np.empty(grad.shape))
    denom = np.add(np.sqrt(denom, out=denom), params.eps, out=denom)
    step = np.multiply(params.lr, np.divide(m, 1.0 - b1**t, out=tmp), out=tmp)
    return np.divide(step, denom, out=step)


@dataclass(frozen=True)
class StepObjective:
    """`loss(u, Z, t, step)` on one step binding: (loss, gradient per
    class of `step.classes`), or with `loss_only` the loss alone."""

    loss: Callable
    Z: object
    t: float
    step: "StepCells | StepRender"

    def __call__(self, u: np.ndarray):
        return self.loss(u, self.Z, self.t, self.step)

    def loss_only(self, u: np.ndarray) -> float:
        return self.loss(u, self.Z, self.t, replace(self.step, need_grad=False))[0]


def optimize_vector(v_init: np.ndarray, objective, params: AdamParams):
    """Run `params.steps` Adam steps from v_init and zero moments;
    returns (v, loss trace).

    `objective(v) -> (loss, grad)`.  The trace holds one loss per
    evaluation, including a final evaluation after the last step, so it
    has steps + 1 entries.  A `StepObjective`'s gradient holds one row
    per class: Adam's moments are kept per class, each row of v takes
    its class's step, and the final evaluation computes no gradient.
    """
    v = v_init.astype(np.float64, copy=True)
    classes = objective.step.classes if isinstance(objective, StepObjective) else None
    state = None
    losses: list[float] = []
    for _ in range(params.steps):
        loss, grad = objective(v)
        if not np.isfinite(loss):
            raise OptimizationError(f"non-finite loss during optimization; trace={losses}")
        losses.append(float(loss))
        if classes is None:
            v, state = adam_step(v, grad, state or OptimState.zeros(v.shape), params)
        else:
            state = state or OptimState.zeros(grad.shape)
            v -= _adam_delta(grad, state, params).take(classes, axis=0)
    if params.steps > 0:
        final = objective(v)[0] if classes is None else objective.loss_only(v)
        if not np.isfinite(final):
            raise OptimizationError(f"non-finite final loss; trace={losses}")
        losses.append(float(final))
    return v.astype(v_init.dtype), losses


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), through exp(-|z|) so that it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class PriorCells:
    """Prior coordinates reduced once to the lattice cells they sample.

    `cells` indexes the unique coarse cells as an (x, y, z) tuple, in
    descending order of their point counts (cells of equal count in
    ascending (x, y, z) order), and `inverse` maps each prior point, in
    order, to its cell.  `ends[k - 1]` is the number of cells holding at
    least k points, for k = 1 to the largest count: cells 0 to ends[k - 1]
    are the ones that take a k-th point.
    """

    dims: Dims
    cells: tuple
    inverse: np.ndarray
    ends: tuple

    @classmethod
    def build(cls, P, dims: Dims) -> "PriorCells":
        """Check fine-grid coordinates (`int_coords`) and bin them into
        cells; an empty set is a ValueError."""
        P = int_coords(P, dims, "prior coordinate")
        if len(P) == 0:
            raise ValueError("ss_loss requires a non-empty prior coordinate set")
        shape = dims.dense_shape[:3]
        keys = np.ravel_multi_index(tuple((P // dims.ratio).T), shape)
        unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        order = np.argsort(-counts, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # counts[order] descends, so the cells holding k or more points lead
        ends = np.searchsorted(-counts[order], -np.arange(1, counts.max() + 1), side="right")
        return cls(dims, np.unravel_index(unique[order], shape), rank[inverse], tuple(ends.tolist()))

    def point_sums(self, y: np.ndarray) -> np.ndarray:
        """Each cell's float64 value `y[cell]` summed once per point of the
        cell, from 0.0 and one addition at a time, as `np.bincount(inverse,
        weights=y[inverse])` sums it: the k-th additions of all cells are
        one slice add over the first `ends[k - 1]` cells."""
        out = np.zeros(len(y))
        for m in self.ends:
            out[:m] += y[:m]
        return out

    def at(self, Z_t: DenseLatent, t: float) -> "StepCells":
        """These cells bound to one Euler step (Z_t, t)."""
        _check_t(t)
        return StepCells(self, Z_t, t, Z_t.data[self.cells].astype(np.float64))


@dataclass(frozen=True)
class StepCells:
    """Prior cells bound to one Euler step: the step's latent and t, and
    the latent at the cells in float64 (`z`, (cells, C)).  `index`
    selects the cells, the support of the structure loss, in a vector
    shaped like the latent's data.  Each cell is one gradient class
    (`classes`), with one column for its C channels."""

    prior: PriorCells
    latent: DenseLatent
    t: float
    z: np.ndarray
    need_grad: bool = True

    @property
    def index(self) -> tuple:
        return self.prior.cells

    @property
    def classes(self) -> np.ndarray:
        return np.arange(len(self.z))


def _check_t(t: float):
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")


def _check_step(step, Z_t, t, u):
    """A step binding serves only the step it was made for, and a vector
    on its support."""
    if step.latent is not Z_t or step.t != t:
        raise ConfigError("the objective was bound to another step")
    if np.shape(u) != step.z.shape:
        raise ValueError(f"support vector shape {np.shape(u)} != {step.z.shape}")


def ss_loss(v_hat: np.ndarray, Z_t, t: float, P: np.ndarray | PriorCells | StepCells, codec: ToyCodec):
    """Structure loss: -mean_p log sigmoid(logit of the denoised latent at p).

    P is an (n, 3) array of prior coordinates on the fine grid, its
    `PriorCells`, or those bound to this step (`PriorCells.at(Z_t, t)`);
    repeated rows are allowed and weigh their voxel more.  The gradient
    w.r.t. v_hat is analytic through the linear codec: only lattice
    cells feeding a sampled logit receive gradient, every other entry
    is -0.0.  With a step binding, v_hat holds only the cells' entries,
    `v_hat[step.index]`, and the gradient is one column per cell, in the
    order of `PriorCells.cells`, summed over the cell's points by
    `PriorCells.point_sums`.
    """
    if isinstance(P, StepCells):
        if P.prior.dims != codec.dims:
            raise ConfigError("prior cells were built for other lattice dims")
        _check_step(P, Z_t, t, v_hat)
        x = P.z - t * np.asarray(v_hat, dtype=np.float64)
        logits = np.add.reduce(x, axis=1) / x.shape[1]
        inverse = P.prior.inverse
        loss = float(np.add.reduce(np.logaddexp(0.0, -logits)[inverse]) / len(inverse))
        if not P.need_grad:
            return loss, None
        dz = (_sigmoid(logits) - 1.0) / len(inverse)  # d loss / d logit per point of a cell
        grad = P.prior.point_sums(dz / codec.dims.C)[:, None]
        grad *= -t
        return loss, grad
    _check_t(t)
    if not isinstance(P, PriorCells):
        P = PriorCells.build(P, codec.dims)
    elif P.dims != codec.dims:
        raise ConfigError("prior cells were built for other lattice dims")
    if v_hat.shape != Z_t.data.shape:
        raise ValueError(f"v_hat shape {v_hat.shape} != latent shape {Z_t.data.shape}")
    step = P.at(Z_t, t)
    loss, grad = ss_loss(v_hat[step.index], Z_t, t, step, codec)
    grad_x = np.full(Z_t.data.shape, -0.0)
    grad_x[step.index] = grad
    return loss, grad_x


def projection_render(slat: SparseLatent) -> np.ndarray:
    """Orthographic mean over z of the first 3 feature channels as RGB."""
    columns = _Columns.build(slat.dims, slat.coords)
    return _render_mean(columns, slat.features[:, :3].astype(np.float64)).astype(DTYPE)


@dataclass(frozen=True)
class _Columns:
    """The image column of every voxel of one coordinate set.

    `flat` is each voxel's pixel index in the flattened (h, w) image,
    and `count` the float64 voxel count of every pixel.  `bins` is the
    (voxel, channel) entries' bin in the flattened (h, w, 3) image, in
    voxel-major order, for the min(3, l) rendered channels.
    """

    dims: Dims
    coords: np.ndarray
    flat: np.ndarray
    count: np.ndarray
    nonempty: np.ndarray
    bins: np.ndarray

    @classmethod
    def build(cls, dims: Dims, coords: np.ndarray) -> "_Columns":
        w = dims.b * dims.M
        flat = coords[:, 0] * w + coords[:, 1]
        count = np.bincount(flat, minlength=dims.a * dims.M * w).astype(np.float64)
        bins = (flat[:, None] * 3 + np.arange(min(3, dims.l))).ravel()
        return cls(dims, coords, flat, count, count > 0, bins)


def _render_mean(columns: _Columns, feats64: np.ndarray) -> np.ndarray:
    """Column means of the (voxels, min(3, l)) float64 `feats64`; empty
    columns black.  One `np.bincount` over (pixel, channel) bins adds
    each bin's voxels in voxel order, as a bincount per channel would."""
    dims = columns.dims
    h, w = dims.a * dims.M, dims.b * dims.M
    img = np.bincount(columns.bins, weights=feats64.ravel(), minlength=h * w * 3)
    img = img.astype(np.float64, copy=False).reshape(h * w, 3)  # with no voxels, bincount counts in ints
    np.divide(img, columns.count[:, None], out=img, where=columns.nonempty[:, None])
    return img.reshape(h, w, 3)


def _box_sum(x: np.ndarray, k: int, pad: int = 0) -> np.ndarray:
    """Valid-mode sliding k x k window sums over the first two axes of x
    zero-padded by `pad` on each side.

    The padding and both cumulative sums share one buffer whose first
    row and column stay zero, so no further array is allocated.
    """
    h, w = x.shape[:2]
    c = np.zeros((h + 2 * pad + 1, w + 2 * pad + 1) + x.shape[2:])
    body = c[1:, 1:]
    if pad:
        body[pad : pad + h, pad : pad + w] = x
        x = body
    np.cumsum(x, axis=0, out=body)
    np.cumsum(body, axis=1, out=body)
    return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]


def _box_adjoint(g: np.ndarray, k: int) -> np.ndarray:
    """Adjoint of _box_sum: spread each window's value over its support."""
    return _box_sum(g, k, pad=k - 1)


_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2
_SSIM_WINDOW = 8


@dataclass(frozen=True)
class SsimTarget:
    """The fixed second image of SSIM with its window means and variances.

    `image` is float64 with a channel axis; `shape` is the shape given.
    """

    image: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    k: int
    shape: tuple

    @classmethod
    def build(cls, img) -> "SsimTarget":
        b = np.asarray(img, dtype=np.float64)
        shape = b.shape
        if b.ndim == 2:
            b = b[:, :, None]
        k = min(_SSIM_WINDOW, b.shape[0], b.shape[1])
        n = k * k
        mu_b = _box_sum(b, k) / n
        sbb = _box_sum(b * b, k) / n - mu_b**2
        return cls(b, mu_b, sbb, k, shape)


def ssim(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Mean structural similarity with 8x8 box windows on unit range."""
    value, _ = ssim_with_grad(img_a, img_b, need_grad=False)
    return value


def ssim_with_grad(img_a: np.ndarray, img_b: np.ndarray | SsimTarget, need_grad: bool = True):
    """SSIM and its analytic gradient with respect to the first image.

    `img_b` is an image of the same shape or its `SsimTarget`.
    """
    a = np.asarray(img_a, dtype=np.float64)
    if not isinstance(img_b, SsimTarget):
        img_b = SsimTarget.build(img_b)
    if a.shape != img_b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {img_b.shape}")
    b, mu_b, sbb, k = img_b.image, img_b.mu, img_b.var, img_b.k
    squeeze = a.ndim == 2
    if squeeze:
        a = a[:, :, None]
    h, w, ch = a.shape
    n = k * k
    mu_a = _box_sum(a, k) / n
    saa = _box_sum(a * a, k) / n - mu_a**2
    sab = _box_sum(a * b, k) / n - mu_a * mu_b
    a1 = 2.0 * mu_a * mu_b + _SSIM_C1
    a2 = 2.0 * sab + _SSIM_C2
    b1 = mu_a**2 + mu_b**2 + _SSIM_C1
    b2 = saa + sbb + _SSIM_C2
    s = (a1 * a2) / (b1 * b2)
    n_windows = s.shape[0] * s.shape[1]
    value = float(s.mean())
    if not need_grad:
        return value, None
    d = b1 * b2
    ds_dmu_a = (a2 / d) * 2.0 * mu_b - (s / b1) * 2.0 * mu_a
    ds_dsaa = -s / b2
    ds_dsab = (a1 / d) * 2.0
    scale = 1.0 / (n_windows * ch * n)
    grad = scale * (
        _box_adjoint(ds_dmu_a, k)
        + 2.0 * a * _box_adjoint(ds_dsaa, k)
        - 2.0 * _box_adjoint(ds_dsaa * mu_a, k)
        + b * _box_adjoint(ds_dsab, k)
        - _box_adjoint(ds_dsab * mu_b, k)
    )
    if squeeze:
        grad = grad[:, :, 0]
    return value, grad


@dataclass(frozen=True)
class LossWeights:
    l2: float = 1.0
    ssim: float = 1.0

    def __post_init__(self):
        _check_reals(self, ("l2", "ssim"))
        if self.l2 < 0 or self.ssim < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class RenderTarget:
    """What the rendering objective keeps over a feature stage: the image
    columns of one coordinate set, the target image with its SSIM
    statistics, the occupied pixels (flat, ascending) with their voxel
    counts, and each voxel's index among them, its gradient class."""

    columns: _Columns
    image: np.ndarray
    ssim: SsimTarget
    pixels: np.ndarray
    pixel_count: np.ndarray
    classes: np.ndarray

    @classmethod
    def build(cls, dims: Dims, coords: np.ndarray, target_image: np.ndarray) -> "RenderTarget":
        image = np.asarray(target_image, dtype=np.float64)
        h, w = dims.a * dims.M, dims.b * dims.M
        if image.shape != (h, w, 3):
            raise ConfigError(f"target image shape {image.shape} != {(h, w, 3)}")
        columns = _Columns.build(dims, coords)
        pixels, classes = np.unique(columns.flat, return_inverse=True)
        return cls(columns, image, SsimTarget.build(image), pixels, columns.count[pixels], classes)

    def at(self, Z_t: SparseLatent, t: float) -> "StepRender":
        """This target bound to one Euler step (Z_t, t); Z_t must have
        the target's dims and coordinates."""
        columns = self.columns
        if columns.dims != Z_t.dims or not (
            Z_t.coords is columns.coords or np.array_equal(Z_t.coords, columns.coords)
        ):
            raise ConfigError("render target was built for other dims or another coordinate set")
        nch = min(3, Z_t.dims.l)
        return StepRender(self, Z_t, t, Z_t.features[:, :nch].astype(np.float64))


@dataclass(frozen=True)
class StepRender:
    """A render target bound to one Euler step: the step's latent and t,
    and the latent's rendered channels in float64 (`z`, (rows, nch) with
    nch = min(3, l)).  `index` selects those channels, the support of
    the rendering objective, in a vector shaped like the features.  The
    voxels of one occupied pixel form one gradient class (`classes`)."""

    target: RenderTarget
    latent: SparseLatent
    t: float
    z: np.ndarray
    need_grad: bool = True

    @property
    def index(self) -> tuple:
        return (slice(None), slice(0, self.z.shape[1]))

    @property
    def classes(self) -> np.ndarray:
        return self.target.classes


def slat_objective(
    v_hat: np.ndarray,
    Z_t: SparseLatent,
    t: float,
    target_image: np.ndarray | RenderTarget | StepRender | None,
    weights: LossWeights = LossWeights(),
):
    """Rendering objective on the denoised feature field.

    The denoised features Z_t - t * v_hat are projected to an image and
    scored as l2_weight * ||I - target||^2 / (H*W) - ssim_weight * SSIM.
    The gradient chains analytically through the linear projector; only
    the first 3 feature channels receive gradient, every other entry is
    -0.0.  `target_image` is an (H, W, 3) image, a `RenderTarget` built
    for Z_t's coordinates, or one bound to this step
    (`RenderTarget.at(Z_t, t)`); with a step binding, v_hat holds only
    the rendered channels, `v_hat[step.index]`, and the gradient one row
    per occupied pixel.
    """
    if isinstance(target_image, StepRender):
        step, target = target_image, target_image.target
        _check_step(step, Z_t, t, v_hat)
        columns = target.columns
        dims = Z_t.dims
        h, w = dims.a * dims.M, dims.b * dims.M
        feats0 = step.z - t * np.asarray(v_hat, dtype=np.float64)
        img = _render_mean(columns, feats0)
        diff = img - target.image
        l2 = float((diff * diff).sum() / (h * w))
        sval, sgrad = ssim_with_grad(img, target.ssim, need_grad=step.need_grad and weights.ssim > 0)
        loss = weights.l2 * l2 - weights.ssim * sval
        if not step.need_grad:
            return loss, None
        d_img = weights.l2 * 2.0 * diff / (h * w)
        if weights.ssim > 0:
            d_img = d_img - weights.ssim * sgrad
        grad = d_img.reshape(h * w, 3).take(target.pixels, axis=0)[:, : feats0.shape[1]]
        grad /= target.pixel_count[:, None]
        grad *= -t
        return loss, grad
    if target_image is None:
        raise ConfigError("slat objective requires a target image")
    if not isinstance(target_image, RenderTarget):
        target_image = RenderTarget.build(Z_t.dims, Z_t.coords, target_image)
    step = target_image.at(Z_t, t)
    loss, grad = slat_objective(v_hat[step.index], Z_t, t, step, weights)
    grad_feats = np.full(Z_t.features.shape, -0.0)
    grad_feats[step.index] = grad.take(step.classes, axis=0)
    return loss, grad_feats
