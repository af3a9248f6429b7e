"""Occupancy codec and iterative under-noised structure editing.

The toy codec is a linear stand-in for a trained occupancy VAE: encode
block-averages the fine grid onto the coarse lattice and maps occupancy
fraction o to 2o - 1; decode thresholds the channel-mean lattice strictly
at 0 and nearest-neighbor-upsamples the result to the fine grid.
Block-constant grids round-trip exactly, which makes every edit
analyzable.

An edit round noises the encoded guide to level t_noise and denoises
along a schedule starting at t_start.  A round accepts any pair of
levels, so over-noising (t_noise > t_start) can serve as a baseline;
the pipeline's configuration enforces t_noise <= t_start.  With t_start
strictly greater (under-noising) the field treats missing structure as
residual noise and fills it in.  Rounds chain: each consumes the
previous round's decoded occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .flowcore import (
    Conditioner,
    StepHook,
    VectorFieldProvider,
    euler_integrate,
    extended_field,
    mixed_field,
)
from .lattice import DTYPE, DenseLatent, Dims, OccupancyGrid, Schedule, lerp_latent
from .patchwork import PatchGrid, dilated_partition


def upsample_blocks(coarse: np.ndarray, r: int) -> np.ndarray:
    """Nearest-neighbor upsample: each cell becomes an r x r x r block."""
    x, y, z = coarse.shape
    blocks = np.broadcast_to(coarse[:, None, :, None, :, None], (x, r, y, r, z, r))
    return blocks.reshape(x * r, y * r, z * r)


@dataclass(frozen=True)
class ToyCodec:
    """Linear occupancy autoencoder between the fine grid and the lattice."""

    dims: Dims

    def encode(self, grid: OccupancyGrid) -> DenseLatent:
        """Per-block mean occupancy mapped affinely onto [-1, 1]."""
        if grid.dims != self.dims:
            raise DimensionError("occupancy dims do not match codec dims")
        d = self.dims
        r = d.ratio
        # Block counts as integers, staged x, y, z in dtypes that hold
        # r, r^2 and r^3: the same exact values a float64 sum would add.
        counts = grid.occupied.view(np.uint8).reshape(d.a * d.N, r, d.b * d.N, r, d.N, r)
        for k in (1, 2, 3):
            counts = counts.sum(axis=k, dtype=np.min_scalar_type(r**k))
        mean = counts / float(r**3)
        data = (2.0 * mean - 1.0).astype(DTYPE)
        data = np.repeat(data[:, :, :, None], d.C, axis=3)
        return DenseLatent(d, data)

    def decode_occupancy(self, Z: DenseLatent) -> OccupancyGrid:
        """Occupied wherever the nearest-neighbor upsampled channel-mean
        logit is strictly positive (thresholded before the upsample)."""
        if Z.dims != self.dims:
            raise DimensionError("latent dims do not match codec dims")
        logits = Z.data.mean(axis=3, dtype=np.float64).astype(DTYPE)
        return OccupancyGrid(self.dims, upsample_blocks(logits > 0.0, self.dims.ratio))


def under_noise(Z0g: DenseLatent, t_noise: float, seed) -> DenseLatent:
    """(1 - t_noise) * guide + t_noise * eps, for t_noise in [0, 1].

    The interpolation level is t_noise whatever level the subsequent
    schedule starts at; `seed` may be an int or a Generator (the
    iterative loop passes one advancing stream).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eps = rng.standard_normal(Z0g.dims.dense_shape, dtype=DTYPE)
    return lerp_latent(Z0g, DenseLatent(Z0g.dims, eps), t_noise)


def sdedit_round(
    occ: OccupancyGrid,
    t_noise: float,
    schedule: Schedule,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    grid: PatchGrid,
    codec: ToyCodec,
    rng: np.random.Generator,
    optimizer_hook: StepHook | None = None,
    dilated_alpha: int | None = None,
) -> OccupancyGrid:
    """One edit round: encode, noise to `t_noise`, integrate along
    `schedule` (from its first time), decode, threshold.

    `dilated_alpha` enables the gamma-mixed dilated field (structure
    stage only); each step redraws the pillar partition from `rng`.
    """
    Z = under_noise(codec.encode(occ), t_noise, rng)

    if dilated_alpha is None:
        def field_fn(state, t):
            return extended_field(state, t, grid, provider, conditioner)
    else:
        def field_fn(state, t):
            partition = dilated_partition(grid.dims, grid.K, seed=int(rng.integers(2**63)))
            return mixed_field(state, t, grid, provider, conditioner, partition, dilated_alpha)

    Z_final = euler_integrate(Z, schedule, field_fn, optimizer_hook)
    return codec.decode_occupancy(Z_final)


def iterative_sdedit(
    occ0: OccupancyGrid,
    t_noise: float,
    n_iter: int,
    schedule: Schedule,
    provider: VectorFieldProvider,
    conditioner: Conditioner,
    grid: PatchGrid,
    codec: ToyCodec,
    seed: int,
    hook_for_round=None,
    dilated_alpha: int | None = None,
    on_round=None,
) -> np.ndarray:
    """Chain n_iter edit rounds and return the occupied coordinate set.

    Fresh noise for every round comes from one advancing stream seeded
    once, so runs are reproducible.  n_iter = 0 returns the input grid's
    coordinates untouched.  `hook_for_round(n)` may supply a per-round
    optimizer hook; `on_round` observes each round's output grid.
    """
    rng = np.random.default_rng(seed)
    occ = occ0
    for n in range(n_iter):
        occ = sdedit_round(
            occ, t_noise, schedule, provider, conditioner, grid, codec, rng,
            optimizer_hook=hook_for_round(n) if hook_for_round is not None else None,
            dilated_alpha=dilated_alpha,
        )
        if on_round is not None:
            on_round(n, occ)
    return occ.coords()
