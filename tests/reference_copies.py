"""Reference copies of helpers that only tests use.

They left the library because no program calls them; the tests keep
them as small, obviously correct references.
"""

from dataclasses import dataclass

import numpy as np

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
