"""Feature-field decoding to signed distances and asset export.

Mesh-oriented decoding works on overlapping windows: each window's
sparse features decode to a dense signed-distance patch (channel 0 at
occupied voxels, +1 outside), and the patches blend into one grid with
separable raised-cosine weights so seams carry no near-zero-weight
artifacts.  Point-cloud export consumes the global feature field
directly, one vertex per occupied voxel center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoverageError, DimensionError
from .lattice import DTYPE, Dims, OccupancyGrid, SparseLatent
from .patchwork import PatchGrid, SparseWindowPlan, window_plan

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


def toy_decode_sdf(slat_patch: SparseLatent) -> np.ndarray:
    """Dense (M, M, M) grid: feature channel 0 at entries, +1 elsewhere."""
    M = slat_patch.dims.M
    out = np.full((M, M, M), OUTSIDE_SDF, dtype=DTYPE)
    c = slat_patch.coords
    out[c[:, 0], c[:, 1], c[:, 2]] = slat_patch.features[:, 0]
    return out


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


def decode_scene_sdf(slat: SparseLatent, grid: PatchGrid, plan: SparseWindowPlan | None = None) -> SdfGrid:
    """Window-by-window decode of a global feature field into one SDF.

    `plan` is the window plan of the grid and the field's coordinates,
    built here when not given.
    """
    plan = window_plan(grid, slat.coords, plan)
    patches = {(w.i, w.j): toy_decode_sdf(p) for w, p in zip(plan.windows, plan.gather(slat))}
    return merge_sdf_patches(patches, grid)


def export_ply(obj: OccupancyGrid | SparseLatent, with_colors: bool = False) -> bytes:
    """ASCII PLY with one vertex per occupied voxel center.

    Centers are (p + 0.5) / M, so the scene spans [0, a) x [0, b) x [0, 1).
    With `with_colors`, sparse features 0..2 are clamped to [0, 1] and
    written as uchar red/green/blue.
    """
    if isinstance(obj, SparseLatent):
        coords = obj.coords
        M = obj.dims.M
        feats = obj.features
    else:
        coords = obj.coords()
        M = obj.dims.M
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
    # One %-format over all vertices; colors are integral floats, which
    # %d prints like the uchar they stand for.
    columns = [(coords + 0.5) / M]
    row_format = "%.9g %.9g %.9g"
    if with_colors:
        rgb = np.zeros((len(coords), 3), dtype=np.float64)
        nch = min(3, feats.shape[1])
        rgb[:, :nch] = feats[:, :nch]
        columns.append(np.clip(np.rint(rgb * 255.0), 0, 255))
        row_format += " %d %d %d"
    values = tuple(np.hstack(columns).ravel().tolist())
    body = (row_format + "\n") * len(coords) % values
    return (header + body).encode("ascii")

