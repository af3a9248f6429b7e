"""Feature-field decoding to signed distances and asset export.

Mesh-oriented decoding works on overlapping windows: each window's
sparse features decode to a dense signed-distance patch (channel 0 at
occupied voxels, +1 outside), and the patches blend into one grid with
separable raised-cosine weights so seams carry no near-zero-weight
artifacts (`merge_sdf_patches`, for any patches).  Every window decodes
a cell of one feature field alike, so blending a scene's own windows
gives back each cell's value; `decode_scene_sdf` writes those values
without building a patch.  Point-cloud export consumes the global
feature field directly, one vertex per occupied voxel center; each
distinct coordinate and color is formatted once, and the vertex lines
are gathered from those tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoverageError, DimensionError
from .lattice import DTYPE, Dims, OccupancyGrid, SparseLatent
from .patchwork import PatchGrid

OUTSIDE_SDF = 1.0


@dataclass(frozen=True)
class SdfGrid:
    """Signed distances on the fine grid (negative inside)."""

    dims: Dims
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=DTYPE)
        if data.shape != self.dims.grid_shape:
            raise DimensionError(f"sdf shape {data.shape} != {self.dims.grid_shape}")
        if not np.isfinite(data).all():
            raise ValueError("sdf grid contains non-finite values")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class CosineWeightField:
    """Separable per-window blending weights.

    Each axis ramps with a raised cosine from 0 at the window boundary
    to 1 past the overlap depth K - K/d; where the two ramps meet the
    smaller one wins.  Weights are evaluated at cell centers, so they
    are strictly positive everywhere inside the window.
    """

    K: int
    d: int

    def axis_profile(self) -> np.ndarray:
        K, d = self.K, self.d
        ramp = K - K // d
        centers = np.arange(K, dtype=np.float64) + 0.5
        if ramp == 0:
            return np.ones(K, dtype=np.float64)
        up = 0.5 - 0.5 * np.cos(np.pi * np.minimum(centers, ramp) / ramp)
        down = 0.5 - 0.5 * np.cos(np.pi * np.minimum(K - centers, ramp) / ramp)
        return np.minimum(up, down)

    def window_weights(self) -> np.ndarray:
        """(K, K, K) weight block: x/y ramps, constant along z."""
        p = self.axis_profile()
        return np.broadcast_to(np.outer(p, p)[:, :, None], (self.K, self.K, self.K)).copy()


def merge_sdf_patches(patches: Mapping, grid: PatchGrid) -> SdfGrid:
    """Cosine-weighted average of per-window SDF patches.

    Per cell: sum over covering windows of w * sdf divided by the total
    weight.  Window order is fixed, accumulation is float64.
    """
    expected = {(w.i, w.j) for w in grid.windows()}
    if set(patches.keys()) != expected:
        raise CoverageError("merge requires exactly one SDF patch per grid window")
    dims = grid.dims
    if grid.K != dims.M:
        raise DimensionError("SDF merging runs on the fine grid (K = M)")
    weights = CosineWeightField(grid.K, grid.d).window_weights()
    acc = np.zeros(dims.grid_shape, dtype=np.float64)
    wsum = np.zeros(dims.grid_shape, dtype=np.float64)
    for w in grid.windows():
        patch = np.asarray(patches[(w.i, w.j)], dtype=np.float64)
        if patch.shape != (grid.K,) * 3:
            raise DimensionError(f"SDF patch shape {patch.shape} != {(grid.K,) * 3}")
        (x0, x1), (y0, y1), _ = w.box
        acc[x0:x1, y0:y1, :] += weights * patch
        wsum[x0:x1, y0:y1, :] += weights
    if (wsum <= 0).any():
        raise CoverageError("zero total weight in SDF merge (internal error)")
    return SdfGrid(dims, (acc / wsum).astype(DTYPE))


def decode_scene_sdf(slat: SparseLatent) -> SdfGrid:
    """The SDF that decoding `slat` on any fine window grid (K = M) and
    merging the patches (`merge_sdf_patches`) gives, built without them.

    Every window covering a cell decodes it alike: feature 0 where it is
    occupied, OUTSIDE_SDF elsewhere.  The merge's weighted mean of n
    equal values is that value: its float64 quotient stays within about
    2n float64 ulps of it, far below float32's half ulp, and w * 1.0 == w
    makes an empty cell's quotient exactly 1.0.  Since the sums start from 0.0,
    a feature of -0.0 merges to +0.0.
    """
    out = np.full(slat.dims.grid_shape, OUTSIDE_SDF, dtype=DTYPE)
    x, y, z = slat.coords.T
    out[x, y, z] = slat.features[:, 0] + DTYPE(0.0)  # -0.0 + 0.0 is +0.0
    return SdfGrid(slat.dims, out)


def export_ply(obj: OccupancyGrid | SparseLatent, with_colors: bool = False) -> bytes:
    """ASCII PLY with one vertex per occupied voxel center.

    Centers are (p + 0.5) / M, so the scene spans [0, a) x [0, b) x [0, 1).
    With `with_colors`, sparse features 0..2 are clamped to [0, 1] and
    written as uchar red/green/blue.
    """
    if isinstance(obj, SparseLatent):
        coords = obj.coords
        feats = obj.features
    else:
        coords = obj.coords()
        feats = None
    if with_colors and feats is None:
        raise ValueError("colors require a sparse feature field")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(coords)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if with_colors:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    header = "\n".join(lines) + "\n"
    # Per column, its distinct values formatted once ("%.9g" of a float64
    # center, "%d" of a color level) and the vertices' indices into them.
    M = obj.dims.M
    columns = [
        (["%.9g" % v for v in ((np.arange(extent) + 0.5) / M).tolist()], coords[:, axis])
        for axis, extent in enumerate(obj.dims.grid_shape)
    ]
    if with_colors:
        rgb = np.zeros((len(coords), 3), dtype=np.float64)
        nch = min(3, feats.shape[1])
        rgb[:, :nch] = feats[:, :nch]
        levels = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.intp)
        columns += [(["%d" % v for v in range(256)], levels[:, k]) for k in range(3)]
    # One zero-padded row of tokens per vertex, each token ending in its
    # separator; dropping the padding leaves the vertex lines.
    last = len(columns) - 1
    rows = np.concatenate(
        [_tokens(texts, "\n" if k == last else " ").take(index, axis=0) for k, (texts, index) in enumerate(columns)],
        axis=1,
    )
    return b"".join([header.encode("ascii"), rows[rows != 0]])


def _tokens(texts: list[str], sep: str) -> np.ndarray:
    """(len(texts), width) uint8: each text and `sep` in ASCII, zero-padded."""
    return np.array([t + sep for t in texts], dtype="S").view(np.uint8).reshape(len(texts), -1)
