"""Scene priors: image + per-pixel 3D points + camera, and their geometry.

A prior bundle stands in for a monocular depth estimator's output.  It is
ingested from SPR1 files, its point cloud is voxelized onto the fine
grid, and its image is cut into per-window patches by following each
pixel's 3D point into the lattice.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from os import PathLike

import numpy as np

from .errors import ParseError
from .lattice import DTYPE, Dims, OccupancyGrid
from .patchwork import PatchGrid, Window

log = logging.getLogger(__name__)

SPR_MAGIC = b"SPR1"


@dataclass(frozen=True)
class ScenePrior:
    """Image in [0,1], per-pixel world points, validity mask, 3x4 camera."""

    image: np.ndarray
    point_map: np.ndarray
    valid: np.ndarray
    camera: np.ndarray

    def __post_init__(self):
        image = np.ascontiguousarray(self.image, dtype=DTYPE)
        point_map = np.ascontiguousarray(self.point_map, dtype=DTYPE)
        valid = np.ascontiguousarray(self.valid, dtype=bool)
        camera = np.ascontiguousarray(self.camera, dtype=DTYPE)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"image must be (H, W, 3), got {image.shape}")
        h, w = image.shape[:2]
        if point_map.shape != (h, w, 3):
            raise ValueError(f"point map shape {point_map.shape} != {(h, w, 3)}")
        if valid.shape != (h, w):
            raise ValueError(f"valid mask shape {valid.shape} != {(h, w)}")
        if camera.shape != (3, 4):
            raise ValueError(f"camera must be 3x4, got {camera.shape}")
        if not np.isfinite(image).all():
            raise ValueError("image has non-finite values")
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        if valid.any() and not np.isfinite(point_map[valid]).all():
            raise ValueError("point map has non-finite values at valid pixels")
        for name, arr in (("image", image), ("point_map", point_map),
                          ("valid", valid), ("camera", camera)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.image.shape[:2]

    def valid_points(self) -> np.ndarray:
        return self.point_map[self.valid].reshape(-1, 3)


@dataclass(frozen=True)
class ConditionEmbedding:
    """Opaque provider condition: raw bytes."""

    data: bytes


@dataclass(frozen=True)
class NormalizationBox:
    """World-space AABB mapped onto the full [0,aM) x [0,bM) x [0,M) grid."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.ascontiguousarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.ascontiguousarray(self.hi, dtype=np.float64).reshape(3)
        if not (hi > lo).all():
            raise ValueError(f"box must have positive extent on all axes: {lo} .. {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_points(cls, points: np.ndarray, margin: float = 0.02) -> "NormalizationBox":
        """Tight bounding box of the points, expanded by `margin` per axis."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot fit a normalization box to zero points")
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        extent = np.maximum(hi - lo, 1e-9)
        return cls(lo - margin * extent, hi + margin * extent)

    def to_voxels(self, points: np.ndarray, dims: Dims) -> np.ndarray:
        """floor((p - lo) / extent * gridsize), clamped into the grid."""
        return self._clamped_voxels(points, dims)[0]

    def _clamped_voxels(self, points: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
        """`to_voxels`' indices, and which points the clamp moved."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        size = np.array(dims.grid_shape, dtype=np.float64)
        rel = (points - self.lo) / (self.hi - self.lo)
        raw = np.floor(rel * size).astype(np.int64)
        idx = np.clip(raw, 0, np.array(dims.grid_shape, dtype=np.int64) - 1)
        return idx, (raw != idx).any(axis=1)


def write_scene_prior(path: str | PathLike, prior: ScenePrior) -> None:
    h, w = prior.shape
    with open(path, "wb") as fh:
        fh.write(SPR_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(np.ascontiguousarray(prior.image, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(prior.point_map, dtype="<f4").tobytes())
        fh.write(prior.valid.astype(np.uint8).tobytes())
        fh.write(np.ascontiguousarray(prior.camera, dtype="<f4").tobytes())


def load_scene_prior(path: str | PathLike) -> ScenePrior:
    """Parse an SPR1 file; malformed input raises ParseError with the offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != SPR_MAGIC:
        raise ParseError("bad SPR1 magic", offset=0)
    if len(data) < 12:
        raise ParseError("truncated SPR1 header", offset=len(data))
    h, w = struct.unpack_from("<II", data, 4)
    if h == 0 or w == 0 or h * w > 2**26:
        raise ParseError(f"unreasonable SPR1 size {h}x{w}", offset=4)
    offset = 12
    sections = (
        ("image", (h, w, 3), "<f4", 4),
        ("point_map", (h, w, 3), "<f4", 4),
        ("valid", (h, w), "u1", 1),
        ("camera", (3, 4), "<f4", 4),
    )
    arrays = {}
    for name, shape, dtype, itemsize in sections:
        count = int(np.prod(shape))
        end = offset + count * itemsize
        if len(data) < end:
            raise ParseError(f"truncated SPR1 {name} section", offset=len(data))
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
        offset = end
    if len(data) != offset:
        raise ParseError("trailing bytes after SPR1 payload", offset=offset)
    try:
        return ScenePrior(
            image=arrays["image"].copy(),
            point_map=arrays["point_map"].copy(),
            valid=arrays["valid"].astype(bool),
            camera=arrays["camera"].copy(),
        )
    except ValueError as exc:
        raise ParseError(f"invalid SPR1 content: {exc}", offset=12) from exc


def voxelize(points: np.ndarray, box: NormalizationBox, dims: Dims) -> OccupancyGrid:
    """Bin points into the occupancy grid; out-of-box points are clamped."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return OccupancyGrid.empty(dims)
    idx, moved = box._clamped_voxels(points, dims)
    clamped = int(moved.sum())
    if clamped:
        log.info("voxelize: clamped %d of %d points into the box", clamped, len(points))
    return OccupancyGrid.from_coords(dims, idx)


def pixel_voxels(prior: ScenePrior, box: NormalizationBox, dims: Dims) -> np.ndarray:
    """Per-pixel voxel coordinates (H, W, 3) of the prior's points.  Only
    valid pixels are voxelized, since an invalid pixel's point may be
    anything, NaN included; invalid pixels read (0, 0, 0)."""
    voxels = np.zeros(prior.shape + (3,), dtype=np.int64)
    voxels[prior.valid] = box.to_voxels(prior.valid_points(), dims)
    return voxels


@dataclass(frozen=True)
class ImagePatch:
    """Square image cut for one window; `empty` flags a window that no
    valid pixel mapped into."""

    pixels: np.ndarray
    empty: bool = False


def image_patchify(
    prior: ScenePrior,
    window: Window,
    grid: PatchGrid,
    box: NormalizationBox,
    voxel_map: np.ndarray | None = None,
) -> ImagePatch:
    """Keep pixels whose 3D point falls in the window, black out the rest,
    crop to the kept bounding box, and pad bottom/right to a square.

    `voxel_map` may carry the precomputed `pixel_voxels` to avoid
    renormalizing the point map for every window.
    """
    if voxel_map is None:
        voxel_map = pixel_voxels(prior, box, grid.dims)
    scale = grid.K / grid.dims.M  # voxel coordinates live on the M grid
    vx = np.floor(voxel_map[:, :, 0] * scale).astype(np.int64)
    vy = np.floor(voxel_map[:, :, 1] * scale).astype(np.int64)
    vz = np.floor(voxel_map[:, :, 2] * scale).astype(np.int64)
    keep = (
        prior.valid
        & (vx >= window.x0) & (vx < window.x0 + window.K)
        & (vy >= window.y0) & (vy < window.y0 + window.K)
        & (vz >= 0) & (vz < window.K)
    )
    if not keep.any():
        return ImagePatch(np.zeros((1, 1, 3), dtype=DTYPE), empty=True)
    masked = np.where(keep[:, :, None], prior.image, 0.0).astype(DTYPE)
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    crop = masked[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    side = max(crop.shape[0], crop.shape[1])
    out = np.zeros((side, side, 3), dtype=DTYPE)
    out[: crop.shape[0], : crop.shape[1]] = crop
    return ImagePatch(out, empty=False)


def toy_condition(patch: ImagePatch | np.ndarray) -> ConditionEmbedding:
    """Deterministic image embedding: mean RGB + 8-bin luminance histogram,
    serialized as 11 little-endian float32 values."""
    pixels = patch.pixels if isinstance(patch, ImagePatch) else np.asarray(patch, dtype=DTYPE)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
        raise ValueError(f"condition input must be a non-empty (h, w, 3) patch, got {pixels.shape}")
    mean_rgb = pixels.reshape(-1, 3).mean(axis=0, dtype=np.float64)
    luminance = pixels.mean(axis=2, dtype=np.float64).ravel()
    hist, _ = np.histogram(luminance, bins=8, range=(0.0, 1.0))
    hist = hist / luminance.size
    values = np.concatenate([mean_rgb, hist]).astype("<f4")
    return ConditionEmbedding(values.tobytes())


def parse_ply_points(data: bytes) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an ASCII PLY vertex cloud.

    Returns (points (n,3) float64, colors (n,3) uint8 or None).  Raises
    ParseError on malformed input.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"PLY is not ASCII: {exc}", offset=0) from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' header line", offset=0)
    n_vertex = None
    properties: list[str] = []
    body_start = None
    in_vertex_element = False
    for idx, line in enumerate(lines[1:], start=1):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise ParseError(f"unsupported PLY format {' '.join(tok[1:])}")
        elif tok[0] == "element":
            if len(tok) < 2:
                raise ParseError(f"PLY element line {idx} lacks a name")
            in_vertex_element = tok[1] == "vertex"
            if in_vertex_element:
                try:
                    n_vertex = int(tok[2])
                except (IndexError, ValueError):
                    n_vertex = -1
                if n_vertex < 0:
                    raise ParseError(f"PLY vertex count on line {idx} is not a count")
        elif tok[0] == "property" and in_vertex_element:
            properties.append(tok[-1])
        elif tok[0] == "end_header":
            body_start = idx + 1
            break
    if n_vertex is None or body_start is None:
        raise ParseError("PLY header lacks vertex element or end_header")
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise ParseError(f"PLY vertex element lacks property {axis}")
    has_color = all(c in properties for c in ("red", "green", "blue"))
    rows = lines[body_start : body_start + n_vertex]
    if len(rows) < n_vertex:
        raise ParseError(f"PLY body has {len(rows)} rows, expected {n_vertex}")
    points = np.zeros((n_vertex, 3), dtype=np.float64)
    colors = np.zeros((n_vertex, 3), dtype=np.uint8) if has_color else None
    ix, iy, iz = (properties.index(a) for a in ("x", "y", "z"))
    if has_color:
        ir, ig, ib = (properties.index(c) for c in ("red", "green", "blue"))
    for r, line in enumerate(rows):
        tok = line.split()
        if len(tok) < len(properties):
            raise ParseError(f"short PLY vertex row {r}")
        try:
            points[r] = (float(tok[ix]), float(tok[iy]), float(tok[iz]))
            if has_color:
                colors[r] = (int(tok[ir]), int(tok[ig]), int(tok[ib]))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"bad PLY vertex row {r}: {exc}") from exc
    if not np.isfinite(points).all():
        raise ParseError("PLY vertex has a non-finite coordinate")
    return points, colors


def read_ply_points(path: str | PathLike) -> tuple[np.ndarray, np.ndarray | None]:
    with open(path, "rb") as fh:
        return parse_ply_points(fh.read())
