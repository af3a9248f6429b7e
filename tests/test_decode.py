import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiledflow.decode import (
    CosineWeightField,
    OUTSIDE_SDF,
    SdfGrid,
    decode_scene_sdf,
    export_ply,
    merge_sdf_patches,
)
from tiledflow.errors import CoverageError, DimensionError
from tiledflow.lattice import Dims, OccupancyGrid, SparseLatent, init_sparse_noise
from tiledflow.patchwork import SparseWindowPlan, make_patch_grid
from tiledflow.priors import NormalizationBox, parse_ply_points
from reference_copies import export_ply as old_export_ply, toy_decode_sdf


class TestToyDecodeSdf:
    dims = Dims(1, 1, 4, 8, l=4).patch_dims()

    def test_empty_patch_all_outside(self):
        out = toy_decode_sdf(SparseLatent.empty(self.dims))
        assert out.shape == (8, 8, 8)
        assert np.all(out == OUTSIDE_SDF)

    def test_single_entry(self):
        slat = SparseLatent(
            self.dims, np.array([[1, 2, 3]]), np.array([[-0.5, 0, 0, 0]], dtype=np.float32)
        )
        out = toy_decode_sdf(slat)
        assert out[1, 2, 3] == np.float32(-0.5)
        assert (out != OUTSIDE_SDF).sum() == 1

    def test_two_entries(self):
        slat = init_sparse_noise(np.array([[0, 0, 0], [7, 7, 7]]), self.dims, seed=0)
        out = toy_decode_sdf(slat)
        assert (out != OUTSIDE_SDF).sum() <= 2
        assert out[0, 0, 0] == slat.features[0, 0]


class TestCosineWeights:
    def test_no_overlap_means_flat_weights(self):
        assert np.all(CosineWeightField(8, 1).axis_profile() == 1.0)

    def test_strictly_positive_inside(self):
        for d in (2, 4, 8):
            profile = CosineWeightField(8, d).axis_profile()
            assert (profile > 0).all()

    def test_symmetric(self):
        for d in (2, 4):
            profile = CosineWeightField(8, d).axis_profile()
            assert np.allclose(profile, profile[::-1])

    def test_interior_core_is_one_when_it_exists(self):
        profile = CosineWeightField(8, 2).axis_profile()  # ramp 4 of window 8
        assert profile.max() <= 1.0
        # complementary ramps: opposite ends of adjacent windows sum to 1
        assert np.allclose(profile[:4] + profile[:4][::-1], 1.0)

    def test_core_when_overlap_small(self):
        profile = CosineWeightField(8, 8).axis_profile()  # stride 1, ramp 7
        assert profile.max() < 1.0  # ramps meet before reaching the core
        assert (profile > 0).all()


def _sphere_sdf(M, center, radius=2.5):
    g = np.stack(np.meshgrid(*[np.arange(M) + 0.5] * 3, indexing="ij"), axis=-1)
    return (np.linalg.norm(g - np.asarray(center), axis=-1) - radius).astype(np.float32)


class TestMergeSdf:
    def test_single_patch_identity(self):
        dims = Dims(1, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        patch = _sphere_sdf(8, (4, 4, 4))
        merged = merge_sdf_patches({(0, 0): patch}, grid)
        assert np.allclose(merged.data, patch, atol=1e-6)

    def test_equal_values_in_overlap(self):
        dims = Dims(2, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        patches = {(w.i, w.j): np.full((8, 8, 8), 0.75, dtype=np.float32) for w in grid.windows()}
        merged = merge_sdf_patches(patches, grid)
        assert np.allclose(merged.data, 0.75, atol=1e-6)

    def test_symmetric_center_averages_two_patches(self):
        # windows at x0 = 0, 4, 8; cells [4, 8) see only windows 0 and 1.
        # The two cells straddling the overlap's center carry mirrored
        # weights, so their merged mean is the plain average.
        dims = Dims(2, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        values = {(0, 0): 1.0, (1, 0): 3.0, (2, 0): 3.0}
        patches = {
            key: np.full((8, 8, 8), val, dtype=np.float32) for key, val in values.items()
        }
        merged = merge_sdf_patches(patches, grid)
        center_pair = merged.data[5:7, 0, 0].astype(np.float64)
        assert center_pair.mean() == pytest.approx(2.0, abs=1e-6)

    def test_identity_where_single_coverage(self):
        dims = Dims(2, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        rng = np.random.default_rng(0)
        patches = {
            (w.i, w.j): rng.standard_normal((8, 8, 8)).astype(np.float32)
            for w in grid.windows()
        }
        merged = merge_sdf_patches(patches, grid)
        # cells [0, 4) are covered only by window 0, [12, 16) only by window 2
        assert np.allclose(merged.data[:4], patches[(0, 0)][:4], atol=1e-6)
        assert np.allclose(merged.data[12:], patches[(2, 0)][4:], atol=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_convex_combination_bound(self, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(2, 2, 4, 8)
        grid = make_patch_grid(dims, int(rng.choice([1, 2, 4])), 8)
        patches = {
            (w.i, w.j): rng.standard_normal((8, 8, 8)).astype(np.float32)
            for w in grid.windows()
        }
        merged = merge_sdf_patches(patches, grid)
        lo = np.full(dims.grid_shape, np.inf)
        hi = np.full(dims.grid_shape, -np.inf)
        for w in grid.windows():
            (x0, x1), (y0, y1), _ = w.box
            p = patches[(w.i, w.j)]
            lo[x0:x1, y0:y1] = np.minimum(lo[x0:x1, y0:y1], p)
            hi[x0:x1, y0:y1] = np.maximum(hi[x0:x1, y0:y1], p)
        assert (merged.data >= lo - 1e-5).all()
        assert (merged.data <= hi + 1e-5).all()

    def test_order_invariance(self):
        dims = Dims(2, 2, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        rng = np.random.default_rng(1)
        patches = {
            (w.i, w.j): rng.standard_normal((8, 8, 8)).astype(np.float32)
            for w in grid.windows()
        }
        reversed_patches = dict(reversed(list(patches.items())))
        a = merge_sdf_patches(patches, grid)
        b = merge_sdf_patches(reversed_patches, grid)
        assert np.array_equal(a.data, b.data)

    def test_missing_patch_rejected(self):
        dims = Dims(2, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        with pytest.raises(CoverageError):
            merge_sdf_patches({(0, 0): np.zeros((8, 8, 8), dtype=np.float32)}, grid)

    def test_bad_inputs_rejected(self):
        grid = make_patch_grid(Dims(2, 1, 4, 8), 2, 8)
        patches = {(w.i, w.j): np.zeros((8, 8, 8), dtype=np.float32) for w in grid.windows()}
        with pytest.raises(CoverageError, match="one SDF patch per grid window"):
            merge_sdf_patches({**patches, (3, 0): patches[(0, 0)]}, grid)
        with pytest.raises(DimensionError, match="SDF patch shape"):
            merge_sdf_patches({**patches, (1, 0): np.zeros((8, 8, 4), dtype=np.float32)}, grid)
        coarse = make_patch_grid(Dims(2, 1, 4, 8), 2, 4)  # K = N
        with pytest.raises(DimensionError, match="fine grid"):
            merge_sdf_patches({(w.i, w.j): np.zeros((4, 4, 4)) for w in coarse.windows()}, coarse)

    def test_seam_continuity_on_two_sdf_fixture(self):
        # two slightly offset sphere SDFs assigned to alternating windows:
        # gradients across window-boundary seams must stay comparable to
        # interior gradients
        dims = Dims(2, 1, 4, 8)
        grid = make_patch_grid(dims, 2, 8)
        sphere_a = _sphere_sdf(8, (4.0, 4.0, 4.0))
        sphere_b = _sphere_sdf(8, (4.5, 4.0, 4.0))
        patches = {(0, 0): sphere_a, (1, 0): sphere_b, (2, 0): sphere_a}
        merged = merge_sdf_patches(patches, grid).data.astype(np.float64)
        dx = np.abs(np.diff(merged, axis=0))  # dx[x] = |g[x+1] - g[x]|
        seam_positions = [3, 7, 11]  # crossings of x = 4, 8, 12
        seam_max = max(dx[x].max() for x in seam_positions)
        interior = np.delete(dx, seam_positions, axis=0)
        assert seam_max <= interior.max() * 1.5


# Feature values at and around the color clip edges and rounding ties:
# 255 * v lands next to k + 0.5 for v = (k + 0.5) / 255 in float32, its
# float32 neighbours fall on either side, and v = 0.5 lands on 127.5.
_TIES = np.array([(k + 0.5) / 255 for k in (0, 1, 127, 128, 253, 254)], dtype=np.float32)
_EDGE_VALUES = np.concatenate(
    [
        _TIES,
        np.nextafter(_TIES, np.float32(-1)),
        np.nextafter(_TIES, np.float32(2)),
        np.array([k / 255 for k in (0, 1, 128, 254, 255)], dtype=np.float32),
        np.array([-0.0, 0.0, 0.5, 1.0, -1e-3, -0.5, -7.0, 1.0 + 1e-6, 1.5, 300.0, 1e30, -1e30], dtype=np.float32),
    ]
)
_SDF_VALUES = np.concatenate([_EDGE_VALUES, np.array([1e-45, -1e-40, 1e-38, 3e38, -3e38], dtype=np.float32)])


class TestDecodeSceneSdf:
    def test_uniform_field(self):
        dims = Dims(2, 2, 4, 8, l=4)
        coords = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        feats = np.full((len(coords), 4), -0.25, dtype=np.float32)
        slat = SparseLatent(dims, coords, feats)
        sdf = decode_scene_sdf(slat)
        assert np.allclose(sdf.data, -0.25, atol=1e-6)

    @settings(max_examples=120)
    @given(
        st.sampled_from([Dims(1, 1, 4, 8, l=1), Dims(2, 2, 4, 8, l=2), Dims(3, 2, 4, 12, l=3), Dims(2, 1, 8, 8)]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_merged_window_patches(self, dims, d, density, seed):
        """Bit-equal to decoding every window and merging the patches;
        feature 0 takes exact +1, signed zeros, subnormals, large and
        negative values."""
        d = d if dims.M % d == 0 else 2
        rng = np.random.default_rng(seed)
        grid = make_patch_grid(dims, d, dims.M)
        cells = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        coords = cells[rng.random(len(cells)) < density]
        feats = rng.normal(0.0, 2.0, (len(coords), dims.l)).astype(np.float32)
        kind = rng.integers(0, 6, len(coords))
        feats[kind == 0, 0] = 1.0
        feats[kind == 1, 0] = -0.0
        feats[kind == 2, 0] = rng.choice(_SDF_VALUES, np.count_nonzero(kind == 2))
        slat = SparseLatent(dims, coords, feats)
        plan = SparseWindowPlan(grid, slat.coords)
        patches = {(w.i, w.j): toy_decode_sdf(p) for w, p in zip(grid.windows(), plan.gather(slat))}
        want = merge_sdf_patches(patches, grid).data.tobytes()
        assert decode_scene_sdf(slat).data.tobytes() == want


@st.composite
def _ply_cases(draw):
    dims = draw(
        st.sampled_from(
            [Dims(1, 1, 4, 8, l=4), Dims(3, 2, 4, 12, l=3), Dims(2, 1, 2, 6, l=2), Dims(1, 2, 1, 5, l=1)]
        )
    )
    dims = Dims(dims.a, dims.b, dims.N, dims.M, l=draw(st.integers(1, 4)))
    size = draw(st.sampled_from([0, 1, 2, 17, 200]))
    form = draw(st.sampled_from(["occupancy", "sparse", "colors"]))
    return dims, size, form, draw(st.integers(0, 2**32 - 1))


class TestExportPly:
    @settings(max_examples=120)
    @given(_ply_cases())
    def test_matches_the_per_vertex_format(self, case):
        dims, size, form, seed = case
        rng = np.random.default_rng(seed)
        cells = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        coords = cells[rng.choice(len(cells), min(size, len(cells)), replace=False)]
        feats = rng.choice(_EDGE_VALUES, (len(coords), dims.l))
        if form == "occupancy":
            obj = OccupancyGrid.from_coords(dims, coords)
        else:
            obj = SparseLatent(dims, coords, feats)
        colors = form == "colors"
        assert export_ply(obj, with_colors=colors) == old_export_ply(obj, with_colors=colors)
        if form == "occupancy":  # colors need features
            with pytest.raises(ValueError, match="colors require"):
                export_ply(obj, with_colors=True)

    def test_every_color_level_and_rounding_tie(self):
        dims = Dims(2, 2, 4, 12, l=3)
        cells = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        levels = np.float32(np.arange(256) / 255)
        values = np.concatenate([levels, _EDGE_VALUES])
        feats = np.stack([values, values[::-1], -values], axis=1)
        slat = SparseLatent(dims, cells[: len(values)], feats)
        assert export_ply(slat, with_colors=True) == old_export_ply(slat, with_colors=True)

    def test_empty_grid(self):
        dims = Dims(1, 1, 8, 32)
        blob = export_ply(OccupancyGrid.empty(dims))
        assert b"element vertex 0" in blob
        assert blob.startswith(b"ply\nformat ascii 1.0\n")
        assert b"end_header" in blob

    def test_single_voxel_center(self):
        dims = Dims(1, 1, 8, 32)
        blob = export_ply(OccupancyGrid.from_coords(dims, np.array([[0, 0, 0]])))
        assert b"0.015625 0.015625 0.015625" in blob

    def test_round_trip_voxel_set(self):
        dims = Dims(2, 2, 8, 32)
        rng = np.random.default_rng(2)
        coords = np.unique(rng.integers(0, [64, 64, 32], size=(40, 3)), axis=0)
        grid = OccupancyGrid.from_coords(dims, coords)
        points, _ = parse_ply_points(export_ply(grid))
        # vertices sit at (p + 0.5) / M, in [0, a) x [0, b) x [0, 1)
        box = NormalizationBox(np.zeros(3), np.array([dims.a, dims.b, 1.0]))
        back = box.to_voxels(points, dims)
        assert set(map(tuple, back.tolist())) == set(map(tuple, coords.tolist()))

    def test_colors_from_features(self):
        dims = Dims(1, 1, 4, 8, l=4)
        slat = SparseLatent(
            dims, np.array([[0, 0, 0]]), np.array([[1.0, 0.5, 0.0, 0.9]], dtype=np.float32)
        )
        blob = export_ply(slat, with_colors=True)
        assert b"property uchar red" in blob
        last = blob.decode().strip().splitlines()[-1]
        assert last.split()[3:] == ["255", "128", "0"]

    def test_sdf_grid_type_checks(self):
        dims = Dims(1, 1, 4, 8)
        with pytest.raises(ValueError):
            SdfGrid(dims, np.full(dims.grid_shape, np.nan, dtype=np.float32))
