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
on v_hat.  Planned and unplanned calls give the same bits: the per-cell
and per-pixel sums use `np.bincount`, which adds its weights one at a
time in input order in float64, as the `np.add.at` scatter did
(`np.add.reduceat` would not: it adds a segment's head to the sum of
its tail), and the structure loss still averages n per-point values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigError, OptimizationError
from .lattice import DTYPE, Dims, SparseLatent
from .structedit import ToyCodec


@dataclass(frozen=True)
class AdamParams:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    steps: int = 5

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


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
    """One bias-corrected Adam update; returns (new value, state).

    The moments are new arrays; the other intermediates share two
    buffers, written with `out=`, in the textbook operation order.
    """
    if value.shape != grad.shape:
        raise ValueError(f"value shape {value.shape} != grad shape {grad.shape}")
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
    return value - np.divide(step, denom, out=step), state


def optimize_vector(v_init: np.ndarray, objective, params: AdamParams):
    """Run `params.steps` Adam steps from v_init and zero moments;
    returns (v, loss trace).

    `objective(v) -> (loss, grad)`.  The trace holds one loss per
    evaluation, including a final evaluation after the last step, so it
    has steps + 1 entries.
    """
    v = v_init.astype(np.float64, copy=True)
    state = OptimState.zeros(v.shape)
    losses: list[float] = []
    for _ in range(params.steps):
        loss, grad = objective(v)
        if not np.isfinite(loss):
            raise OptimizationError(f"non-finite loss during optimization; trace={losses}")
        losses.append(float(loss))
        v, state = adam_step(v, grad, state, params)
    if params.steps > 0:
        final, _ = objective(v)
        if not np.isfinite(final):
            raise OptimizationError(f"non-finite final loss; trace={losses}")
        losses.append(float(final))
    return v.astype(v_init.dtype), losses


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class PriorCells:
    """Prior coordinates reduced once to the lattice cells they sample.

    `cells` indexes the unique coarse cells as an (x, y, z) tuple,
    `inverse` maps each prior point, in order, to its cell.
    """

    dims: Dims
    cells: tuple
    inverse: np.ndarray

    @classmethod
    def build(cls, P, dims: Dims) -> "PriorCells":
        """Check (n, 3) fine-grid coordinates and bin them into cells."""
        P = np.asarray(P, dtype=np.int64).reshape(-1, 3)
        if len(P) == 0:
            raise ValueError("ss_loss requires a non-empty prior coordinate set")
        if ((P < 0) | (P >= np.array(dims.grid_shape, dtype=np.int64))).any():
            raise BoundsError("prior coordinate outside the fine grid")
        shape = dims.dense_shape[:3]
        keys = np.ravel_multi_index(tuple((P // dims.ratio).T), shape)
        unique, inverse = np.unique(keys, return_inverse=True)
        return cls(dims, np.unravel_index(unique, shape), inverse)


def ss_loss(v_hat: np.ndarray, Z_t, t: float, P: np.ndarray | PriorCells, codec: ToyCodec):
    """Structure loss: -mean_p log sigmoid(logit of the denoised latent at p).

    P is an (n, 3) array of prior coordinates on the fine grid, or its
    `PriorCells`; repeated rows are allowed and weigh their voxel more.
    The gradient w.r.t. v_hat is analytic through the linear codec: only
    lattice cells feeding a sampled logit receive gradient.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    dims = codec.dims
    if not isinstance(P, PriorCells):
        P = PriorCells.build(P, dims)
    elif P.dims != dims:
        raise ConfigError("prior cells were built for other lattice dims")
    if v_hat.shape != Z_t.data.shape:
        raise ValueError(f"v_hat shape {v_hat.shape} != latent shape {Z_t.data.shape}")
    x = Z_t.data[P.cells].astype(np.float64) - t * v_hat[P.cells].astype(np.float64)
    logits = x.mean(axis=1)
    loss = float(np.mean(np.logaddexp(0.0, -logits)[P.inverse]))
    dz = (_sigmoid(logits) - 1.0) / len(P.inverse)  # d loss / d logit per point of a cell
    grad_x = np.zeros(Z_t.data.shape)
    grad_x[P.cells] = np.bincount(P.inverse, weights=(dz / dims.C)[P.inverse])[:, None]
    grad_x *= -t
    return loss, grad_x


def projection_render(slat: SparseLatent, axis: str = "z") -> np.ndarray:
    """Orthographic mean over z of the first 3 feature channels as RGB."""
    if axis != "z":
        raise ValueError(f"only the z axis projection is implemented, got {axis!r}")
    columns = _Columns.build(slat.dims, slat.coords)
    return _render_mean(columns, slat.features[:, :3].astype(np.float64)).astype(DTYPE)


@dataclass(frozen=True)
class _Columns:
    """The image column of every voxel of one coordinate set.

    `flat` is each voxel's pixel index in the flattened (h, w) image,
    `count` the float64 voxel count of every pixel and `row_count` the
    count of each voxel's own pixel.
    """

    dims: Dims
    coords: np.ndarray
    flat: np.ndarray
    count: np.ndarray
    nonempty: np.ndarray
    row_count: np.ndarray

    @classmethod
    def build(cls, dims: Dims, coords: np.ndarray) -> "_Columns":
        w = dims.b * dims.M
        flat = coords[:, 0] * w + coords[:, 1]
        count = np.bincount(flat, minlength=dims.a * dims.M * w).astype(np.float64)
        return cls(dims, coords, flat, count, count > 0, count[flat])


def _render_mean(columns: _Columns, feats64: np.ndarray) -> np.ndarray:
    """Column means of up to 3 leading feature channels; empty columns black."""
    dims = columns.dims
    h, w = dims.a * dims.M, dims.b * dims.M
    img = np.zeros((h * w, 3))
    for ch in range(min(3, feats64.shape[1])):
        img[:, ch] = np.bincount(columns.flat, weights=feats64[:, ch], minlength=h * w)
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
        if self.l2 < 0 or self.ssim < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class RenderTarget:
    """What the rendering objective keeps over a feature stage: the image
    columns of one coordinate set and the target image with its SSIM
    statistics."""

    columns: _Columns
    image: np.ndarray
    ssim: SsimTarget

    @classmethod
    def build(cls, dims: Dims, coords: np.ndarray, target_image: np.ndarray) -> "RenderTarget":
        image = np.asarray(target_image, dtype=np.float64)
        h, w = dims.a * dims.M, dims.b * dims.M
        if image.shape != (h, w, 3):
            raise ConfigError(f"target image shape {image.shape} != {(h, w, 3)}")
        return cls(_Columns.build(dims, coords), image, SsimTarget.build(image))


def slat_objective(
    v_hat: np.ndarray,
    Z_t: SparseLatent,
    t: float,
    target_image: np.ndarray | RenderTarget | None,
    weights: LossWeights = LossWeights(),
):
    """Rendering objective on the denoised feature field.

    The denoised features Z_t - t * v_hat are projected to an image and
    scored as l2_weight * ||I - target||^2 / (H*W) - ssim_weight * SSIM.
    The gradient chains analytically through the linear projector; only
    the first 3 feature channels receive gradient.  `target_image` is an
    (H, W, 3) image or a `RenderTarget` built for Z_t's coordinates.
    """
    if target_image is None:
        raise ConfigError("slat objective requires a target image")
    dims = Z_t.dims
    if not isinstance(target_image, RenderTarget):
        target_image = RenderTarget.build(dims, Z_t.coords, target_image)
    columns = target_image.columns
    if columns.dims != dims or not (
        Z_t.coords is columns.coords or np.array_equal(Z_t.coords, columns.coords)
    ):
        raise ConfigError("render target was built for other dims or another coordinate set")
    h, w = dims.a * dims.M, dims.b * dims.M
    nch = min(3, dims.l)
    v_rgb = np.asarray(v_hat[:, :nch], dtype=np.float64)
    feats0 = Z_t.features[:, :nch].astype(np.float64) - t * v_rgb
    img = _render_mean(columns, feats0)
    diff = img - target_image.image
    l2 = float((diff * diff).sum() / (h * w))
    sval, sgrad = ssim_with_grad(img, target_image.ssim, need_grad=weights.ssim > 0)
    loss = weights.l2 * l2 - weights.ssim * sval
    d_img = weights.l2 * 2.0 * diff / (h * w)
    if weights.ssim > 0:
        d_img = d_img - weights.ssim * sgrad
    grad_feats = np.zeros(Z_t.features.shape)
    grad_feats[:, :nch] = (
        d_img.reshape(h * w, 3).take(columns.flat, axis=0)[:, :nch] / columns.row_count[:, None]
    )
    grad_feats *= -t
    return loss, grad_feats
