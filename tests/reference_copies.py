"""Reference copies of helpers that only tests use.

They left the library because no program calls them; the tests keep
them as small, obviously correct references.
"""

from dataclasses import dataclass

import numpy as np

from tiledflow.decode import OUTSIDE_SDF
from tiledflow.errors import SingularityError
from tiledflow.flowcore import VectorFieldProvider
from tiledflow.lattice import DTYPE, DenseLatent, SparseLatent


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


class ZeroFieldProvider(VectorFieldProvider):
    """Returns the zero vector; the flow becomes the identity."""

    def evaluate(self, patch, condition, t):
        if isinstance(patch, SparseLatent):
            return patch.with_features(np.zeros_like(patch.features))
        return patch.with_data(np.zeros_like(patch.data))


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
