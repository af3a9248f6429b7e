import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiledflow.errors import ConfigError, CoverageError
from tiledflow.lattice import DenseLatent, Dims, SparseLatent, _coord_key, init_sparse_noise
from tiledflow.patchwork import (
    SparseWindowPlan,
    Window,
    _pairwise_sum,
    box_rows,
    dilated_partition,
    gather_dense,
    make_patch_grid,
    merge_dense,
    merge_vectors,
    patch_dense,
    patch_sparse,
)

from reference_copies import unpatch_dense


def brute_window_boxes(dims, d, K):
    """Enumerate window boxes directly from the definition."""
    s = K // d
    boxes = []
    for i in range((dims.a - 1) * d + 1):
        for j in range((dims.b - 1) * d + 1):
            boxes.append(((i, j), (i * s, j * s)))
    return boxes


def brute_coverage(dims, d, K):
    cover = np.zeros((dims.a * K, dims.b * K, K), dtype=int)
    for _, (x0, y0) in brute_window_boxes(dims, d, K):
        cover[x0 : x0 + K, y0 : y0 + K, :] += 1
    return cover


class TestPatchGrid:
    def test_unextended_single_window(self):
        grid = make_patch_grid(Dims(1, 1, 8, 8), d=4, K=8)
        assert grid.count == 1
        w = next(iter(grid.windows()))
        assert w.box == ((0, 8), (0, 8), (0, 8))

    def test_window_index_ranges(self):
        grid = make_patch_grid(Dims(2, 3, 4, 4), d=2, K=4)
        ws = list(grid.windows())
        assert {w.i for w in ws} == {0, 1, 2}
        assert {w.j for w in ws} == {0, 1, 2, 3, 4}
        assert grid.count == 15

    def test_count_formula_by_enumeration(self):
        grid = make_patch_grid(Dims(2, 2, 8, 8), d=4, K=8)
        assert grid.count == 25
        assert grid.count == len(brute_window_boxes(grid.dims, 4, 8))

    def test_d_must_divide_K(self):
        with pytest.raises(ConfigError):
            make_patch_grid(Dims(2, 2, 8, 8), d=3, K=8)

    @pytest.mark.parametrize("a,b,d,K", [(1, 1, 1, 4), (2, 2, 2, 4), (3, 2, 4, 8), (2, 3, 1, 8)])
    def test_coverage_matches_brute_force(self, a, b, d, K):
        dims = Dims(a, b, K, K)
        grid = make_patch_grid(dims, d, K)
        cover = brute_coverage(dims, d, K)
        assert (cover >= 1).all()
        assert np.array_equal(grid.coverage_xy(), cover[:, :, 0])


class TestDensePatch:
    dims = Dims(2, 2, 4, 8, C=2)

    def _lattice(self, seed=0):
        rng = np.random.default_rng(seed)
        return DenseLatent(self.dims, rng.standard_normal(self.dims.dense_shape, dtype=np.float32))

    def test_whole_lattice_identity(self):
        dims = Dims(1, 1, 8, 8)
        rng = np.random.default_rng(1)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))
        w = make_patch_grid(dims, 2, 8).window(0, 0)
        assert np.array_equal(patch_dense(Z, w).data, Z.data)

    def test_constant_lattice(self):
        Z = DenseLatent.full(self.dims, 3.25)
        w = Window(1, 1, 4, 2)
        assert np.all(patch_dense(Z, w).data == np.float32(3.25))

    def test_index_arithmetic(self):
        data = np.zeros(self.dims.dense_shape, dtype=np.float32)
        data[2, 4, 0, 0] = 9.0
        Z = DenseLatent(self.dims, data)
        w = Window(1, 2, 4, 2)  # box starts at (2, 4)
        assert w.x0 == 2 and w.y0 == 4
        assert patch_dense(Z, w).data[0, 0, 0, 0] == 9.0

    def test_patch_against_membership_oracle(self):
        Z = self._lattice(3)
        for w in make_patch_grid(self.dims, 2, 4).windows():
            patch = patch_dense(Z, w)
            for x in range(4):
                for y in range(4):
                    for z in range(4):
                        assert np.array_equal(
                            patch.data[x, y, z], Z.data[w.x0 + x, w.y0 + y, z]
                        )

    def test_unpatch_section_identity(self):
        Z = self._lattice(4)
        w = Window(2, 1, 4, 2)
        back = unpatch_dense(patch_dense(Z, w), w, self.dims)
        (x0, x1), (y0, y1), _ = w.box
        assert np.array_equal(back.data[x0:x1, y0:y1, :4], Z.data[x0:x1, y0:y1, :4])
        mask = np.ones(self.dims.dense_shape, dtype=bool)
        mask[x0:x1, y0:y1, :4] = False
        assert np.all(back.data[mask] == 0)

    def test_overlap_count_field(self):
        grid = make_patch_grid(self.dims, 2, 4)
        ones = DenseLatent.full(self.dims.patch_dims(), 1.0)
        total = np.zeros(self.dims.dense_shape, dtype=np.float64)
        for w in grid.windows():
            total += unpatch_dense(ones, w, self.dims).data
        cover = brute_coverage(self.dims, 2, 4)
        assert np.array_equal(total[:, :, :, 0], cover)


class TestSparsePatch:
    dims = Dims(2, 2, 4, 8, l=2)

    def test_window_at_origin_filters_untranslated(self):
        coords = np.array([[0, 0, 0], [7, 7, 7], [3, 3, 3]])
        Z = init_sparse_noise(coords, self.dims, seed=0)
        w = Window(0, 0, 8, 2)
        sub = patch_sparse(Z, w)
        assert np.array_equal(sub.coords, np.array([[0, 0, 0], [3, 3, 3], [7, 7, 7]]))

    def test_translation(self):
        w = Window(1, 1, 8, 2)  # origin (4, 4)
        coords = np.array([[4, 4, 0]])
        Z = init_sparse_noise(coords, self.dims, seed=0)
        sub = patch_sparse(Z, w)
        assert np.array_equal(sub.coords, np.array([[0, 0, 0]]))

    def test_straddling_entries_appear_in_both(self):
        coords = np.array([[5, 5, 1]])  # inside windows (0,0) and (1,1) for K=8, d=2
        Z = init_sparse_noise(coords, self.dims, seed=0)
        in_both = []
        for w in (Window(0, 0, 8, 2), Window(1, 1, 8, 2)):
            sub = patch_sparse(Z, w)
            assert len(sub) == 1
            in_both.append(sub.coords[0])
        assert np.array_equal(in_both[0], [5, 5, 1])
        assert np.array_equal(in_both[1], [1, 1, 1])

    def test_membership_oracle(self):
        rng = np.random.default_rng(5)
        coords = np.argwhere(rng.random((16, 16, 8)) < 0.2)
        Z = init_sparse_noise(coords, self.dims, seed=2)
        for w in make_patch_grid(self.dims, 2, 8).windows():
            sub = patch_sparse(Z, w)
            sub = {tuple(c): f for c, f in zip(sub.coords.tolist(), sub.features)}
            (x0, x1), (y0, y1), (z0, z1) = w.box
            expected = {
                (x - x0, y - y0, z): f
                for (x, y, z), f in zip(Z.coords.tolist(), Z.features)
                if x0 <= x < x1 and y0 <= y < y1 and z0 <= z < z1
            }
            assert set(sub) == set(expected)
            for key in expected:
                assert np.array_equal(sub[key], expected[key])


class TestMerge:
    def test_constant_patches(self):
        dims = Dims(2, 2, 4, 4)
        grid = make_patch_grid(dims, 2, 4)
        patches = {
            (w.i, w.j): DenseLatent.full(dims.patch_dims(), 2.5) for w in grid.windows()
        }
        merged = merge_vectors(patches, grid)
        assert np.all(merged.data == np.float32(2.5))

    def test_single_patch_identity(self):
        dims = Dims(1, 1, 4, 4)
        grid = make_patch_grid(dims, 4, 4)
        rng = np.random.default_rng(0)
        patch = DenseLatent(dims.patch_dims(), rng.standard_normal(dims.patch_dims().dense_shape, dtype=np.float32))
        merged = merge_vectors({(0, 0): patch}, grid)
        assert np.array_equal(merged.data, patch.data)

    def test_doubly_covered_band(self):
        # a=2, b=1, d=2, K=2 on a 4x2x2 lattice: middle band averages two patches
        dims = Dims(2, 1, 2, 2)
        grid = make_patch_grid(dims, 2, 2)
        rng = np.random.default_rng(1)
        patches = {
            (w.i, w.j): DenseLatent(
                dims.patch_dims(), rng.standard_normal((2, 2, 2, 1), dtype=np.float32)
            )
            for w in grid.windows()
        }
        merged = merge_vectors(patches, grid)
        acc = np.zeros(dims.dense_shape, dtype=np.float64)
        for w in grid.windows():
            acc += unpatch_dense(patches[(w.i, w.j)], w, dims).data
        cover = brute_coverage(dims, 2, 2)[:, :, :, None]
        assert np.allclose(merged.data, acc / cover, atol=1e-7)
        x = 1  # covered by windows 0 and 1 only
        v0 = patches[(0, 0)].data[1, :, :, :]
        v1 = patches[(1, 0)].data[0, :, :, :]
        assert np.allclose(merged.data[x], (v0 + v1) / 2, atol=1e-7)

    @pytest.mark.parametrize("a,b,N,d", [(1, 1, 8, 1), (2, 2, 8, 2), (2, 1, 8, 4), (2, 2, 4, 4)])
    def test_merge_identity_dense(self, a, b, N, d):
        # restrictions of one global field merge back to it exactly
        dims = Dims(a, b, N, N)
        grid = make_patch_grid(dims, d, N)
        rng = np.random.default_rng(a * 100 + b * 10 + d)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))
        patches = {(w.i, w.j): patch_dense(Z, w) for w in grid.windows()}
        merged = merge_vectors(patches, grid)
        assert np.abs(merged.data.astype(np.float64) - Z.data.astype(np.float64)).max() <= 1e-12

    def test_merge_identity_sparse(self):
        dims = Dims(2, 2, 4, 8, l=3)
        grid = make_patch_grid(dims, 2, 8)
        rng = np.random.default_rng(9)
        coords = np.argwhere(rng.random(dims.grid_shape) < 0.15)
        Z = init_sparse_noise(coords, dims, seed=4)
        patches = {(w.i, w.j): patch_sparse(Z, w) for w in grid.windows()}
        merged = merge_vectors(patches, grid)
        assert np.array_equal(merged.coords, Z.coords)
        assert np.abs(merged.features.astype(np.float64) - Z.features.astype(np.float64)).max() <= 1e-12

    def test_sparse_divisor_is_geometric_coverage(self):
        # one window contributes a zero feature: mean must still divide by
        # the window count, not by the nonzero count
        dims = Dims(2, 1, 2, 4, l=1)
        grid = make_patch_grid(dims, 2, 4)
        target = np.array([[3, 0, 0]])  # covered by windows (0,0) and (1,0)
        patches = {}
        for w in grid.windows():
            sub = patch_sparse(SparseLatent(dims, target, np.array([[2.0]], dtype=np.float32)), w)
            if (w.i, w.j) == (1, 0) and len(sub):
                sub = sub.with_features(np.zeros_like(sub.features))
            patches[(w.i, w.j)] = sub
        merged = merge_vectors(patches, grid)
        assert merged.coords.tolist() == [[3, 0, 0]]
        assert merged.features[0, 0] == pytest.approx(1.0)

    def test_missing_patch_rejected(self):
        dims = Dims(2, 1, 4, 4)
        grid = make_patch_grid(dims, 2, 4)
        with pytest.raises(CoverageError):
            merge_vectors({}, grid)


def reference_gather(Z, w):
    """Window restriction by a full mask and a lexsort, as before plans."""
    c = Z.coords
    mask = (
        (c[:, 0] >= w.x0)
        & (c[:, 0] < w.x0 + w.K)
        & (c[:, 1] >= w.y0)
        & (c[:, 1] < w.y0 + w.K)
        & (c[:, 2] < w.K)
    )
    shifted = c[mask] - np.array([w.x0, w.y0, 0], dtype=np.int64)
    feats = Z.features[mask]
    order = np.lexsort((shifted[:, 2], shifted[:, 1], shifted[:, 0]))
    return shifted[order], feats[order]


def reference_merge(vectors, grid):
    """Sparse merge by a stable argsort of all contributions and reduceat."""
    dims = grid.dims
    coord_parts, feat_parts = [], []
    for w, X in zip(grid.windows(), vectors):
        coord_parts.append(X.coords + np.array([w.x0, w.y0, 0], dtype=np.int64))
        feat_parts.append(X.features.astype(np.float64))
    all_coords = np.concatenate(coord_parts)
    all_feats = np.concatenate(feat_parts)
    keys = _coord_key(all_coords, dims)
    order = np.argsort(keys, kind="stable")
    keys, all_coords, all_feats = keys[order], all_coords[order], all_feats[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    coords = all_coords[starts]
    acc = np.add.reduceat(all_feats, starts, axis=0)
    acc /= grid.coverage_xy()[coords[:, 0], coords[:, 1]][:, None]
    return coords, acc.astype(np.float32)


@st.composite
def plan_cases(draw):
    """(dims, d, Z, rng): a != b, d in {1, 2, 4}, and a coordinate set that
    is dense, sparse, confined to the first K x K column (so some windows
    hold no rows) or a single voxel."""
    N = draw(st.sampled_from([2, 4]))
    M = N * draw(st.sampled_from([1, 2]))
    a, b = draw(
        st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda ab: ab[0] != ab[1])
    )
    d = draw(st.sampled_from([d for d in (1, 2, 4) if M % d == 0]))
    dims = Dims(a, b, N, M, l=draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["dense", "sparse", "first_column", "one_voxel"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = dims.grid_shape
    if kind == "one_voxel":
        coords = rng.integers(0, shape, size=(1, 3))
    else:
        occupied = rng.random(shape) < (0.6 if kind == "dense" else 0.05)
        if kind == "first_column":
            occupied[M:, :, :] = False
            occupied[:, M:, :] = False
        occupied[tuple(rng.integers(0, M, size=3))] = True  # never empty
        coords = np.argwhere(occupied)
    return dims, d, init_sparse_noise(coords, dims, seed=int(rng.integers(2**31))), rng


def cancelling_values(rng, shape):
    """float32 values drawn half from normals and half from a pool of huge,
    unit and signed-zero values, so the float64 sums cancel and round
    differently in every addition order, visibly even after the float32
    cast."""
    pool = np.array([2.0**60, -(2.0**60), 1.0, -1.0, 0.75, 2.0**-60, 0.0, -0.0])
    feats = np.where(rng.random(shape) < 0.5, rng.choice(pool, size=shape), rng.standard_normal(shape))
    return feats.astype(np.float32)


def random_vector(patch, rng):
    return patch.with_features(cancelling_values(rng, patch.features.shape))


class TestSparseWindowPlan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(plan_cases())
    def test_gather_and_merge_bit_equal_reference(self, case):
        dims, d, Z, rng = case
        grid = make_patch_grid(dims, d, dims.M)
        plan = SparseWindowPlan(grid, Z.coords)
        vectors = []
        for w, patch in zip(grid.windows(), plan.gather(Z)):
            ref_coords, ref_feats = reference_gather(Z, w)
            assert np.array_equal(patch.coords, ref_coords)
            assert patch.features.tobytes() == ref_feats.tobytes()
            vectors.append(random_vector(patch, rng))
        ref_coords, ref_feats = reference_merge(vectors, grid)
        by_window = {(w.i, w.j): X for w, X in zip(grid.windows(), vectors)}
        for merged in (plan.merge(vectors), merge_vectors(by_window, grid)):
            assert np.array_equal(merged.coords, ref_coords)
            assert np.array_equal(merged.coords, Z.coords)
            assert merged.features.tobytes() == ref_feats.tobytes()

    def test_gather_equals_constructor_built_patch(self):
        dims = Dims(3, 2, 4, 8, l=2)
        grid = make_patch_grid(dims, 4, 8)
        rng = np.random.default_rng(3)
        Z = init_sparse_noise(np.argwhere(rng.random(dims.grid_shape) < 0.2), dims, seed=1)
        plan = SparseWindowPlan(grid, Z.coords)
        for w, patch in zip(grid.windows(), plan.gather(Z)):
            built = SparseLatent(dims.patch_dims(), *reference_gather(Z, w))
            assert patch.dims == built.dims
            assert patch.coords.tobytes() == built.coords.tobytes()
            assert patch.features.tobytes() == built.features.tobytes()
            assert not patch.coords.flags.writeable and not patch.features.flags.writeable

    def test_empty_windows_gather_nothing(self):
        dims = Dims(3, 1, 4, 8, l=2)
        grid = make_patch_grid(dims, 2, 8)
        Z = init_sparse_noise(np.array([[1, 2, 3]]), dims, seed=0)
        plan = SparseWindowPlan(grid, Z.coords)
        sizes = [len(patch) for patch in plan.gather(Z)]
        assert sizes == [1] + [0] * (grid.count - 1)
        merged = plan.merge(plan.gather(Z))
        assert np.array_equal(merged.features, Z.features)

    def test_uncovered_coordinate_rejected(self):
        # a K = N grid does not reach fine-grid heights z >= N
        dims = Dims(1, 1, 4, 8, l=1)
        Z = init_sparse_noise(np.array([[0, 0, 5]]), dims, seed=0)
        with pytest.raises(CoverageError):
            SparseWindowPlan(make_patch_grid(dims, 2, 4), Z.coords)


class TestDilated:
    def test_single_sample_when_unextended(self):
        dims = Dims(1, 1, 4, 4)
        part = dilated_partition(dims, 4, seed=0)
        rng = np.random.default_rng(0)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))
        assert len(part) == 1
        assert np.array_equal(part.gather(Z, 0).data, Z.data)

    def test_counts(self):
        dims = Dims(2, 2, 4, 4)
        part = dilated_partition(dims, 4, seed=1)
        assert len(part) == 4
        assert part.src_x.shape == (4, 4, 4)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("K", [4, 8])
    def test_partition_covers_each_pillar_once(self, a, b, K):
        dims = Dims(a, b, K, K)
        part = dilated_partition(dims, K, seed=a * 7 + b + K)
        seen = np.zeros((a * K, b * K), dtype=int)
        for n in range(len(part)):
            seen[part.src_x[n], part.src_y[n]] += 1
        assert (seen == 1).all()

    def test_relative_positions_preserved(self):
        dims = Dims(2, 2, 4, 4)
        part = dilated_partition(dims, 4, seed=3)
        for n in range(4):
            for u in range(4):
                for v in range(4):
                    assert u * 2 <= part.src_x[n, u, v] < (u + 1) * 2
                    assert v * 2 <= part.src_y[n, u, v] < (v + 1) * 2

    @pytest.mark.parametrize("seed", range(10))
    def test_scatter_gather_round_trip(self, seed):
        dims = Dims(2, 3, 4, 4, C=2)
        part = dilated_partition(dims, 4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        Z = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))
        samples = [part.gather(Z, n) for n in range(len(part))]
        back = part.scatter(samples)
        assert np.array_equal(back.data, Z.data)

    def test_zero_samples_zero_field(self):
        dims = Dims(2, 2, 4, 4)
        part = dilated_partition(dims, 4, seed=0)
        zeros = [DenseLatent.zeros(dims.patch_dims()) for _ in range(4)]
        assert np.all(part.scatter(zeros).data == 0)

    def test_deterministic(self):
        dims = Dims(2, 2, 4, 4)
        p1 = dilated_partition(dims, 4, seed=11)
        p2 = dilated_partition(dims, 4, seed=11)
        assert np.array_equal(p1.src_x, p2.src_x)
        assert np.array_equal(p1.src_y, p2.src_y)

    def test_pinned_seed_zero(self):
        part = dilated_partition(Dims(2, 3, 2, 4), 2, seed=0)
        assert part.src_x.tolist() == [
            [[1, 1], [3, 3]], [[0, 1], [2, 3]], [[1, 0], [2, 2]],
            [[1, 0], [3, 2]], [[0, 0], [3, 3]], [[0, 1], [2, 2]],
        ]
        assert part.src_y.tolist() == [
            [[0, 4], [0, 5]], [[2, 5], [2, 4]], [[2, 4], [0, 5]],
            [[1, 5], [2, 4]], [[0, 3], [1, 3]], [[1, 3], [1, 3]],
        ]

    @settings(max_examples=150)
    @given(
        st.integers(1, 5), st.integers(1, 5), st.sampled_from([(2, 4), (4, 8), (8, 32)]),
        st.booleans(), st.one_of(st.integers(0, 2**16), st.integers(2**62, 2**63 - 1)),
    )
    def test_equals_per_block_loop(self, a, b, NM, coarse, seed):
        dims = Dims(a, b, *NM)
        K = dims.N if coarse else dims.M
        part = dilated_partition(dims, K, seed=seed)
        want_x, want_y = old_dilated_partition(dims, K, seed)
        assert part.src_x.tobytes() == want_x.tobytes()
        assert part.src_y.tobytes() == want_y.tobytes()
        assert part.src_x.flags.c_contiguous and not part.src_x.flags.writeable


# Copies of the per-window code that the stacked batches replaced; the
# stacked forms must reproduce their bytes.


def old_patch_dense_loop(Z, grid):
    out = []
    for w in grid.windows():
        (x0, x1), (y0, y1), (z0, z1) = w.box
        out.append(DenseLatent(Z.dims.patch_dims(), Z.data[x0:x1, y0:y1, z0:z1].copy()))
    return out


def old_merge_dense(patch_vectors, grid):
    dims = grid.dims
    acc = np.zeros((dims.a * grid.K, dims.b * grid.K, grid.K, dims.C), dtype=np.float64)
    for w in grid.windows():
        X = patch_vectors[(w.i, w.j)]
        (x0, x1), (y0, y1), _ = w.box
        acc[x0:x1, y0:y1, : w.K] += X.data.astype(np.float64)
    acc /= grid.coverage_xy()[:, :, None, None]
    return DenseLatent(dims, acc.astype(np.float32))


class OldSparseWindowPlan:
    def __init__(self, grid, coords):
        self.coords = coords
        self.windows = list(grid.windows())
        window_rows = [box_rows(coords, w.x0, w.y0, w.K) for w in self.windows]
        patch_dims = grid.dims.patch_dims()
        self.local_coords = [
            SparseLatent(
                patch_dims,
                coords[rows] - np.array([w.x0, w.y0, 0], dtype=np.int64),
                np.zeros((len(rows), patch_dims.l), dtype=np.float32),
            ).coords
            for w, rows in zip(self.windows, window_rows)
        ]
        self.rows = np.concatenate(window_rows)
        self.bounds = np.cumsum([0] + [len(rows) for rows in window_rows])
        self.coverage = np.bincount(self.rows, minlength=len(coords))
        self.order = np.argsort(self.rows, kind="stable")
        self.starts = np.concatenate([[0], np.cumsum(self.coverage[:-1])])

    def gather(self, Z):
        feats = Z.features.take(self.rows, axis=0)
        return [
            SparseLatent(Z.dims.patch_dims(), local, feats[lo:hi])
            for local, lo, hi in zip(self.local_coords, self.bounds[:-1], self.bounds[1:])
        ]

    def merge(self, results):
        feats = np.concatenate([X.features for X in results]).take(self.order, axis=0)
        acc = np.add.reduceat(feats.astype(np.float64), self.starts, axis=0)
        acc /= self.coverage[:, None]
        return acc.astype(np.float32)


def old_dilated_partition(dims, K, seed):
    """The partition as one `permutation` draw per K x K block."""
    a, b = dims.a, dims.b
    rng = np.random.default_rng(seed)
    src_x = np.empty((a * b, K, K), dtype=np.int64)
    src_y = np.empty((a * b, K, K), dtype=np.int64)
    for u in range(K):
        for v in range(K):
            sx, sy = np.divmod(rng.permutation(a * b), b)
            src_x[:, u, v] = u * a + sx
            src_y[:, u, v] = v * b + sy
    return src_x, src_y


def old_dilated_gather(partition, Z, n):
    return DenseLatent(partition.dims.patch_dims(), Z.data[partition.src_x[n], partition.src_y[n], :, :].copy())


def old_dilated_scatter(partition, sample_vectors):
    out = np.zeros(partition.dims.dense_shape, dtype=np.float32)
    for n, sample in enumerate(sample_vectors):
        out[partition.src_x[n], partition.src_y[n], :, :] = sample.data
    return out


def mixed_values(rng, shape):
    """float32 values of mixed sign and exponent (1e-30 to 1e30), with
    signed zeros, so float64 sums round differently in every order."""
    pool = np.array([0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30, 1.0, -0.75])
    scaled = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-30, 30, size=shape)
    values = np.where(rng.random(shape) < 0.4, rng.choice(pool, size=shape), scaled)
    return values.astype(np.float32)


@st.composite
def stacked_cases(draw):
    """(dims, d, rng): a and b in 1-4, d in {1, 2, 4, 8}, C (and the sparse
    feature width l) in 1-3, on N = M = 8 so every d divides the window."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    C = draw(st.integers(1, 3))
    d = draw(st.sampled_from([1, 2, 4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Dims(a, b, 8, 8, C=C, l=C), d, rng


SINGLE_WINDOW = (Dims(1, 1, 8, 8, C=2, l=2), 4, np.random.default_rng(0))


class TestStackedBitEquality:
    @settings(max_examples=150)
    @given(stacked_cases())
    @example(SINGLE_WINDOW)
    def test_dense_gather_equals_per_window_loop(self, case):
        dims, d, rng = case
        grid = make_patch_grid(dims, d, dims.N)
        Z = DenseLatent(dims, mixed_values(rng, dims.dense_shape))
        batch = gather_dense(Z, grid)
        assert len(batch) == grid.count
        for item, ref in zip(batch, old_patch_dense_loop(Z, grid)):
            assert item.data.tobytes() == ref.data.tobytes()

    @settings(max_examples=150)
    @given(stacked_cases())
    @example(SINGLE_WINDOW)
    def test_dense_merge_equals_per_window_merge(self, case):
        dims, d, rng = case
        grid = make_patch_grid(dims, d, dims.N)
        values = mixed_values(rng, (grid.count,) + dims.patch_dims().dense_shape)
        by_window = {(w.i, w.j): DenseLatent(dims.patch_dims(), v) for w, v in zip(grid.windows(), values)}
        expected = old_merge_dense(by_window, grid).data.tobytes()
        assert merge_dense(values, grid).data.tobytes() == expected
        assert merge_vectors(by_window, grid).data.tobytes() == expected

    @settings(max_examples=150)
    @given(stacked_cases(), st.sampled_from([0.02, 0.3, 0.9]))
    @example(SINGLE_WINDOW, 0.3)
    def test_sparse_gather_and_merge_equal_per_window_plan(self, case, density):
        dims, d, rng = case
        grid = make_patch_grid(dims, d, dims.M)
        occupied = rng.random(dims.grid_shape) < density
        occupied[tuple(rng.integers(0, dims.M, size=3))] = True
        Z = init_sparse_noise(np.argwhere(occupied), dims, seed=int(rng.integers(2**31)))
        Z = Z.with_features(mixed_values(rng, Z.features.shape))
        plan, old = SparseWindowPlan(grid, Z.coords), OldSparseWindowPlan(grid, Z.coords)
        batch = plan.gather(Z)
        ref_patches = old.gather(Z)
        assert len(batch) == len(ref_patches)
        for item, ref in zip(batch, ref_patches):
            assert item.coords.tobytes() == ref.coords.tobytes()
            assert item.features.tobytes() == ref.features.tobytes()
        values = mixed_values(rng, batch.features.shape)
        vectors = [ref.with_features(v) for ref, v in zip(ref_patches, np.split(values, batch.bounds[1:-1]))]
        expected = old.merge(vectors).tobytes()
        assert plan.merge_features(values).features.tobytes() == expected
        assert plan.merge(vectors).features.tobytes() == expected

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.02, 0.1, 0.3]),
        st.sampled_from([mixed_values, cancelling_values]),
    )
    def test_sparse_merge_above_pairwise_block_equals_per_window_plan(self, seed, density, draw_values):
        # d = K = 16: stride-1 windows, so coverage reaches 16 * 16 = 256 and
        # the tail sums take the recursive halving branch (n > 128)
        dims = Dims(2, 2, 16, 16, l=2)
        grid = make_patch_grid(dims, 16, 16)
        rng = np.random.default_rng(seed)
        occupied = rng.random(dims.grid_shape) < density
        occupied[16, 16, rng.integers(16)] = True
        Z = init_sparse_noise(np.argwhere(occupied), dims, seed=int(rng.integers(2**31)))
        plan, old = SparseWindowPlan(grid, Z.coords), OldSparseWindowPlan(grid, Z.coords)
        assert plan.coverage.max() == 256
        values = draw_values(rng, (len(plan.rows), dims.l))
        vectors = [ref.with_features(v) for ref, v in zip(old.gather(Z), np.split(values, plan.bounds[1:-1]))]
        assert plan.merge_features(values).features.tobytes() == old.merge(vectors).tobytes()

    def test_pairwise_sum_follows_reduceat(self):
        # every branch and two levels of halving; rows are a row's
        # contributions, so reduceat adds the head to the tail's pairwise sum
        rng = np.random.default_rng(7)
        for n in range(1, 530):
            values = mixed_values(rng, (n, 3, 2))
            expected = np.add.reduceat(values.astype(np.float64), [0], axis=0)[0]
            got = values[0].astype(np.float64)
            if n > 1:
                got += _pairwise_sum(values[1:])
            assert got.tobytes() == expected.tobytes(), n

    @settings(max_examples=150)
    @given(stacked_cases())
    @example(SINGLE_WINDOW)
    def test_dilated_gather_and_scatter_equal_per_sample_loops(self, case):
        dims, _, rng = case
        partition = dilated_partition(dims, dims.N, seed=int(rng.integers(2**31)))
        Z = DenseLatent(dims, mixed_values(rng, dims.dense_shape))
        batch = partition.gather_batch(Z)
        for n, item in enumerate(batch):
            assert item.data.tobytes() == old_dilated_gather(partition, Z, n).data.tobytes()
            assert partition.gather(Z, n).data.tobytes() == item.data.tobytes()
        values = mixed_values(rng, batch.data.shape)
        samples = [DenseLatent(dims.patch_dims(), v) for v in values]
        expected = old_dilated_scatter(partition, samples).tobytes()
        assert partition.scatter(values).data.tobytes() == expected
        assert partition.scatter(samples).data.tobytes() == expected
