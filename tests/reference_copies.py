"""Reference copies of helpers that only tests use.

They left the library because no program calls them; the tests keep
them as small, obviously correct references.
"""

import struct
from dataclasses import dataclass

import numpy as np

from tiledflow.decode import OUTSIDE_SDF
from tiledflow.errors import CoverageError, SingularityError
from tiledflow.flowcore import GlobalOracleProvider, VectorFieldProvider, _dense_section
from tiledflow.lattice import DTYPE, DenseLatent, SparseLatent
from tiledflow.optim import _sigmoid
from tiledflow.patchwork import box_rows
from tiledflow.priors import ConditionEmbedding


@dataclass(frozen=True)
class OracleField(VectorFieldProvider):
    """Closed-form field (Z - target) / t toward one fixed target of the
    latent's own shape (a sparse target on the latent's coordinates)."""

    target: DenseLatent | SparseLatent

    def evaluate(self, patch, condition, t):
        if t <= 0.0:
            raise SingularityError("oracle field is singular at t = 0")
        inv = DTYPE(1.0 / t)
        if isinstance(patch, SparseLatent):
            assert np.array_equal(patch.coords, self.target.coords)
            return patch.with_features((patch.features - self.target.features) * inv)
        return patch.with_data((patch.data - self.target.data) * inv)


class DefaultPathOracle(GlobalOracleProvider):
    """`GlobalOracleProvider` without its agreed-field path: every field
    is gathered and answered by one `evaluate_batch` call, item by item
    from the target's sections."""

    def evaluate_windows(self, Z, layout, conditions, t):
        return VectorFieldProvider.evaluate_windows(self, Z, layout, conditions, t)


@dataclass(frozen=True)
class PerItemBiasedOracle(VectorFieldProvider):
    """The biased oracle as it was defined before it became the exact
    oracle at a constant rate: (patch - target section) * rate, item by
    item through the default paths."""

    ss_target: DenseLatent
    rate: float = 1.0

    def evaluate(self, patch, condition, t):
        target = _dense_section(self.ss_target.data, condition, patch.data.shape)
        return patch.with_data((patch.data - target) * DTYPE(self.rate))


class FixedReply(VectorFieldProvider):
    """Answers every field, on any layout, with one given reply."""

    def __init__(self, reply):
        self.reply = reply

    def evaluate_windows(self, Z, layout, conditions, t):
        return self.reply


class ZeroFieldProvider(VectorFieldProvider):
    """Returns the zero vector; the flow becomes the identity."""

    def evaluate(self, patch, condition, t):
        if isinstance(patch, SparseLatent):
            return patch.with_features(np.zeros_like(patch.features))
        return patch.with_data(np.zeros_like(patch.data))


def pillar_condition(src_x, src_y):
    """One dilated sample's oracle condition, encoded on its own: kind 2,
    the side K, then its (K, K) map of little-endian u4 (src_x, src_y)
    pairs.  The reference for `flowcore.PillarConditions`' items."""
    pairs = np.stack([src_x, src_y], axis=-1).astype("<u4")
    return ConditionEmbedding(struct.pack("<BI", 2, src_x.shape[-1]) + pairs.tobytes())


def unpatch_dense(X, w, dims):
    """Zero-padded inverse of `patch_dense`: the window box receives X,
    everything else 0."""
    out = np.zeros(dims.dense_shape, dtype=DTYPE)
    (x0, x1), (y0, y1), _ = w.box
    out[x0:x1, y0:y1, : w.K] = X.data
    return DenseLatent(dims, out)


def toy_decode_sdf(slat_patch: SparseLatent) -> np.ndarray:
    """Dense (M, M, M) grid: feature channel 0 at entries, +1 elsewhere."""
    M = slat_patch.dims.M
    out = np.full((M, M, M), OUTSIDE_SDF, dtype=DTYPE)
    c = slat_patch.coords
    out[c[:, 0], c[:, 1], c[:, 2]] = slat_patch.features[:, 0]
    return out


def export_ply(obj, with_colors=False):
    """`tiledflow.decode.export_ply` as one %-format over all vertices;
    colors are integral floats, which %d prints like the uchar they
    stand for."""
    if isinstance(obj, SparseLatent):
        coords, feats = obj.coords, obj.features
    else:
        coords, feats = obj.coords(), None
    if with_colors and feats is None:
        raise ValueError("colors require a sparse feature field")
    M = obj.dims.M
    lines = ["ply", "format ascii 1.0", f"element vertex {len(coords)}"]
    lines += [f"property float {axis}" for axis in "xyz"]
    if with_colors:
        lines += [f"property uchar {color}" for color in ("red", "green", "blue")]
    lines.append("end_header")
    header = "\n".join(lines) + "\n"
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


class ReferenceSparseWindowPlan:
    """`SparseWindowPlan`'s arrays as its constructor built them before
    they were read off the window geometry: one `box_rows` search per
    window, and the rank layout by counting each row's windows."""

    def __init__(self, grid, coords):
        self.coords = SparseLatent(grid.dims, coords, np.zeros((len(coords), grid.dims.l), dtype=DTYPE)).coords
        windows = grid.windows()
        window_rows = [box_rows(self.coords, w.x0, w.y0, w.K) for w in windows]
        counts = [len(rows) for rows in window_rows]
        self.rows = np.concatenate(window_rows)
        self.bounds = np.cumsum([0] + counts)
        local = self.coords[self.rows]
        for w, lo, hi in zip(windows, self.bounds[:-1], self.bounds[1:]):
            local[lo:hi, :2] -= (w.x0, w.y0)
        self.local = local
        self.coverage = np.bincount(self.rows, minlength=len(self.coords))
        if (self.coverage < 1).any():
            raise CoverageError("sparse coordinate not covered by any window")
        self.slot, self.ends, self.layout = rank_layout(window_rows, self.coverage)


def rank_layout(window_rows, coverage):
    """(slot, ends, layout) of a plan's reply positions, window by window:
    a position's rank is how many earlier windows hold its row.  The rows
    are listed by descending coverage, ties in row order (row r at
    slot[r]); `layout` holds the positions of rank 0, then rank 1, ...,
    each rank in that list's order, and ends[j] counts rank j."""
    seen = np.zeros(len(coverage), dtype=np.int64)
    rank = []
    for rows in window_rows:
        rank.append(seen[rows])
        seen[rows] += 1
    rows, rank = np.concatenate(window_rows), np.concatenate(rank)
    slot = np.empty(len(coverage), dtype=np.intp)
    slot[sorted(range(len(coverage)), key=lambda r: -coverage[r])] = np.arange(len(coverage))
    layout = np.lexsort((slot[rows], rank))
    return slot, tuple(np.bincount(rank).tolist()), layout


def ss_loss_by_bincount(v_hat, Z_t, t, step, codec):
    """`tiledflow.optim.ss_loss` on a step binding, its gradient summed
    by one `np.bincount` of every prior point's weight, in point order."""
    x = step.z - t * np.asarray(v_hat, dtype=np.float64)
    logits = x.mean(axis=1)
    inverse = step.prior.inverse
    loss = float(np.mean(np.logaddexp(0.0, -logits)[inverse]))
    dz = (_sigmoid(logits) - 1.0) / len(inverse)  # d loss / d logit per point of a cell
    grad = np.bincount(inverse, weights=(dz / codec.dims.C)[inverse])[:, None]
    grad *= -t
    return loss, grad


def point_sums_by_bincount(cells, y):
    """`tiledflow.optim.PriorCells.point_sums` as one `np.bincount` of the
    points' weights, in point order."""
    return np.bincount(cells.inverse, weights=y[cells.inverse], minlength=len(y))


def render_mean_per_channel(columns, feats64):
    """`tiledflow.optim._render_mean` as one `np.bincount` per channel."""
    dims = columns.dims
    h, w = dims.a * dims.M, dims.b * dims.M
    img = np.zeros((h * w, 3))
    for ch in range(min(3, feats64.shape[1])):
        img[:, ch] = np.bincount(columns.flat, weights=feats64[:, ch], minlength=h * w)
    np.divide(img, columns.count[:, None], out=img, where=columns.nonempty[:, None])
    return img.reshape(h, w, 3)


def encode_block_mean(dims, occupied):
    """`ToyCodec.encode`'s lattice data as a float64 mean of each block."""
    r = dims.ratio
    blocks = occupied.astype(np.float64).reshape(dims.a * dims.N, r, dims.b * dims.N, r, dims.N, r)
    data = (2.0 * blocks.mean(axis=(1, 3, 5)) - 1.0).astype(DTYPE)
    return np.repeat(data[:, :, :, None], dims.C, axis=3)


def upsample_blocks(coarse, r):
    """`tiledflow.structedit.upsample_blocks` as three `np.repeat` passes."""
    for axis in range(3):
        coarse = np.repeat(coarse, r, axis=axis)
    return coarse


def decode_occupied(dims, data):
    """`ToyCodec.decode_occupancy`'s grid: the float32 channel-mean logits
    upsampled to the fine grid, then thresholded."""
    logits = data.mean(axis=3, dtype=np.float64).astype(DTYPE)
    return upsample_blocks(logits, dims.ratio) > 0.0


def occupancy_coords(occupied):
    """`OccupancyGrid.coords` through `np.argwhere`."""
    return np.argwhere(occupied).astype(np.int64)
