import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiledflow.errors import BoundsError, DimensionError, ParseError, TiledFlowError
from tiledflow.lattice import (
    DenseBatch,
    DenseLatent,
    Dims,
    OccupancyGrid,
    Schedule,
    SparseBatch,
    SparseLatent,
    batch_coords_problem,
    checked_coords,
    first_nonfinite_item,
    init_sparse_noise,
    lerp_latent,
    sample_gaussian,
    stack_patches,
)
from tiledflow import tensorio

import reference_copies as ref


SMALL = Dims(a=2, b=2, N=4, M=8, C=1, l=4)


class TestDims:
    def test_defaults(self):
        d = Dims()
        assert (d.a, d.b, d.N, d.M, d.C, d.l) == (2, 2, 8, 32, 1, 4)
        assert d.ratio == 4

    def test_m_must_be_multiple_of_n(self):
        with pytest.raises(DimensionError):
            Dims(N=8, M=12)

    @pytest.mark.parametrize("field", ["a", "b", "N", "M", "C", "l"])
    def test_positive_fields(self, field):
        with pytest.raises(DimensionError):
            Dims(**{field: 0, **({"M": 8, "N": 8} if field not in ("N", "M") else {})})

    def test_patch_dims(self):
        p = SMALL.patch_dims()
        assert (p.a, p.b, p.N, p.M) == (1, 1, SMALL.N, SMALL.M)


class TestDenseLatent:
    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            DenseLatent(SMALL, np.zeros((3, 3, 3, 1), dtype=np.float32))

    def test_rejects_nan(self):
        data = np.zeros(SMALL.dense_shape, dtype=np.float32)
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DenseLatent(SMALL, data)

    def test_immutable(self):
        z = DenseLatent.zeros(SMALL)
        with pytest.raises(ValueError):
            z.data[0, 0, 0, 0] = 1.0


class TestLerp:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0 = DenseLatent(SMALL, rng.standard_normal(SMALL.dense_shape, dtype=np.float32))
        eps = DenseLatent(SMALL, rng.standard_normal(SMALL.dense_shape, dtype=np.float32))
        assert np.array_equal(lerp_latent(x0, eps, 0.0).data, x0.data)
        assert np.array_equal(lerp_latent(x0, eps, 1.0).data, eps.data)

    def test_direct_evaluation(self):
        x0 = DenseLatent.zeros(SMALL)
        eps = DenseLatent.full(SMALL, 1.0)
        out = lerp_latent(x0, eps, 0.6)
        assert np.allclose(out.data, 0.6, atol=0)

    def test_identity_on_equal_inputs(self):
        rng = np.random.default_rng(1)
        x = DenseLatent(SMALL, rng.standard_normal(SMALL.dense_shape, dtype=np.float32))
        for t in (0.0, 0.25, 0.5, 0.77, 1.0):
            assert np.allclose(lerp_latent(x, x, t).data, x.data, atol=1e-6)

    def test_affine_in_t(self):
        rng = np.random.default_rng(2)
        x0 = DenseLatent(SMALL, rng.standard_normal(SMALL.dense_shape, dtype=np.float32))
        eps = DenseLatent(SMALL, rng.standard_normal(SMALL.dense_shape, dtype=np.float32))
        for t1, t2 in [(0.0, 1.0), (0.2, 0.6), (0.1, 0.9)]:
            mid = lerp_latent(x0, eps, (t1 + t2) / 2).data.astype(np.float64)
            avg = (
                lerp_latent(x0, eps, t1).data.astype(np.float64)
                + lerp_latent(x0, eps, t2).data.astype(np.float64)
            ) / 2
            assert np.abs(mid - avg).max() < 1e-6  # float32 storage, not exact 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            lerp_latent(DenseLatent.zeros(SMALL), DenseLatent.zeros(Dims(1, 1, 4, 8)), 0.5)

    def test_t_range(self):
        z = DenseLatent.zeros(SMALL)
        with pytest.raises(ValueError):
            lerp_latent(z, z, 1.5)


class TestGaussian:
    def test_deterministic(self):
        a = sample_gaussian(SMALL, seed=7)
        b = sample_gaussian(SMALL, seed=7)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_draw(self):
        assert not np.array_equal(
            sample_gaussian(SMALL, 0).data, sample_gaussian(SMALL, 1).data
        )

    def test_moments(self):
        # law-of-large-numbers check over ~1e6 samples
        dims = Dims(a=2, b=2, N=8, M=8, C=512, l=1)
        data = sample_gaussian(dims, seed=3).data.astype(np.float64)
        assert data.size >= 10**6
        assert abs(data.mean()) < 0.01
        assert abs(data.var() - 1.0) < 0.01


class TestSparse:
    def test_empty(self):
        s = init_sparse_noise(np.zeros((0, 3)), SMALL, seed=0)
        assert len(s) == 0

    def test_cardinality_and_width(self):
        coords = np.array([[0, 0, 0], [3, 2, 1], [1, 1, 1]])
        s = init_sparse_noise(coords, SMALL, seed=0)
        assert len(s) == 3
        assert s.features.shape == (3, SMALL.l)

    def test_deterministic_and_order_independent(self):
        coords = np.array([[0, 0, 0], [3, 2, 1], [1, 1, 1]])
        a = init_sparse_noise(coords, SMALL, seed=5)
        b = init_sparse_noise(coords[::-1], SMALL, seed=5)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features, b.features)

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError):
            init_sparse_noise(np.array([[99, 0, 0]]), SMALL, seed=0)

    def test_unsorted_input_gets_sorted_draws(self):
        coords = np.argwhere(np.random.default_rng(3).random(SMALL.grid_shape) < 0.3)
        shuffled = coords[np.random.default_rng(4).permutation(len(coords))]
        a, b = init_sparse_noise(coords, SMALL, seed=5), init_sparse_noise(shuffled, SMALL, seed=5)
        assert a.coords.tobytes() == b.coords.tobytes() == coords.tobytes()
        assert a.features.tobytes() == b.features.tobytes()

    def test_duplicates_raise(self):
        for coords in ([[0, 0, 0], [1, 1, 1], [1, 1, 1]], [[1, 1, 1], [0, 0, 0], [1, 1, 1]]):
            with pytest.raises(ValueError):
                init_sparse_noise(np.array(coords), SMALL, seed=0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SparseLatent(SMALL, np.array([[1, 1, 1], [1, 1, 1]]), np.zeros((2, 4)))
        # sorted input, duplicate in the middle: must not pass as canonical
        with pytest.raises(ValueError):
            SparseLatent(
                SMALL, np.array([[0, 0, 0], [1, 1, 1], [1, 1, 1], [2, 0, 0]]), np.zeros((4, 4))
            )

    def test_checked_coords_is_the_constructors_check(self):
        coords = np.argwhere(np.random.default_rng(3).random(SMALL.grid_shape) < 0.3)
        perm = np.random.default_rng(4).permutation(len(coords))
        shuffled = coords[perm]
        checked, order = checked_coords(SMALL, shuffled)
        assert checked.dtype == np.int64 and checked.flags.c_contiguous and not checked.flags.writeable
        assert checked.tobytes() == SparseLatent(SMALL, shuffled, np.zeros((len(coords), SMALL.l))).coords.tobytes()
        assert checked.tobytes() == coords.tobytes() and np.array_equal(perm[order], np.arange(len(coords)))
        assert checked_coords(SMALL, checked) == (checked, None)  # a checked array is kept
        assert SparseLatent(SMALL, checked, np.zeros((len(coords), SMALL.l))).coords is checked
        assert shuffled.flags.writeable and coords.flags.writeable  # the caller's arrays stay writable
        assert checked_coords(SMALL, coords)[0].tobytes() == coords.tobytes() and coords.flags.writeable
        with pytest.raises(BoundsError):
            checked_coords(SMALL, np.array([[0, 0, 0], [99, 0, 0]]))
        for dup in ([[0, 0, 0], [1, 1, 1], [1, 1, 1]], [[1, 1, 1], [0, 0, 0], [1, 1, 1]]):
            with pytest.raises(ValueError, match="duplicate"):
                checked_coords(SMALL, np.array(dup))
        assert checked_coords(SMALL, np.zeros((0, 3)))[0].shape == (0, 3)
        assert checked_coords(SMALL, [1, 2, 3])[0].tolist() == [[1, 2, 3]]

    def test_noise_is_one_build_on_a_checked_array(self, monkeypatch):
        # the constructor is the draw's one check; it keeps a checked
        # array, and draws land in sorted order whatever the input's form
        coords = np.argwhere(np.random.default_rng(3).random(SMALL.grid_shape) < 0.3)
        shuffled = coords[np.random.default_rng(4).permutation(len(coords))]
        checked, _ = checked_coords(SMALL, coords)
        frozen = shuffled.copy()
        frozen.flags.writeable = False
        built = []
        post_init = SparseLatent.__post_init__

        def counted(latent):
            built.append(latent)
            post_init(latent)

        monkeypatch.setattr(SparseLatent, "__post_init__", counted)
        Z = init_sparse_noise(checked, SMALL, seed=5)
        assert len(built) == 1 and Z.coords is checked
        for form in (frozen, shuffled.astype(np.int32), coords.T.copy().T):
            other = init_sparse_noise(form, SMALL, seed=5)
            assert other.coords.tobytes() == checked.tobytes()
            assert other.features.tobytes() == Z.features.tobytes()

    def test_with_features_checks_only_features(self):
        s = init_sparse_noise(np.array([[0, 0, 0], [3, 2, 1], [1, 1, 1]]), SMALL, seed=0)
        out = s.with_features(np.ones((3, SMALL.l)))
        assert out.coords is s.coords  # already checked, kept as is
        assert out.features.dtype == np.float32 and not out.features.flags.writeable
        assert out.features.tobytes() == SparseLatent(SMALL, s.coords, np.ones((3, SMALL.l))).features.tobytes()
        bad = np.ones((3, SMALL.l), dtype=np.float32)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            s.with_features(bad)
        for shape in ((2, SMALL.l), (3, SMALL.l + 1)):
            with pytest.raises(ValueError):
                s.with_features(np.ones(shape))

    def test_canonical_order_and_lookup(self):
        coords = np.array([[5, 0, 0], [0, 3, 2], [0, 3, 1]])
        feats = np.array([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0]], dtype=np.float32)
        s = SparseLatent(SMALL, coords, feats)
        assert np.array_equal(s.coords, np.array([[0, 3, 1], [0, 3, 2], [5, 0, 0]]))
        row = np.flatnonzero((s.coords == [0, 3, 2]).all(axis=1))
        assert s.features[row[0], 1] == 2
        assert not (s.coords == [7, 7, 7]).all(axis=1).any()

    def test_round_trip_dict(self):
        coords = np.array([[1, 2, 3], [4, 5, 6]])
        s = init_sparse_noise(coords, SMALL, seed=1)
        entries = {tuple(c): f for c, f in zip(s.coords.tolist(), s.features)}
        # the constructor orders the entries, whatever order the dict keeps
        again = SparseLatent(SMALL, list(entries)[::-1], list(entries.values())[::-1])
        assert np.array_equal(again.coords, s.coords)
        assert np.array_equal(again.features, s.features)


class TestBatches:
    PATCH = SMALL.patch_dims()

    def _sparse(self, seed, n=5):
        coords = np.random.default_rng(seed).integers(0, self.PATCH.M, size=(n, 3))
        return init_sparse_noise(coords, self.PATCH, seed)

    def test_dense_batch_checks_shape_and_names_non_finite_item(self):
        data = np.zeros((3,) + self.PATCH.dense_shape, dtype=np.float32)
        with pytest.raises(DimensionError):
            DenseBatch(self.PATCH, data[:, :2])
        data[2, 1, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="item 2"):
            DenseBatch(self.PATCH, data)

    def test_sparse_batch_checks_each_items_coordinates(self):
        first, second = self._sparse(1), self._sparse(2)
        batch = stack_patches([first, second])
        # each item starts afresh: the second item's first row may sort before the first's last
        rebuilt = SparseBatch(self.PATCH, batch.coords, batch.features, batch.bounds)
        assert rebuilt.coords.tobytes() == batch.coords.tobytes()
        swapped = batch.coords[[0, 1, 2, 3, 4, 6, 5, 7, 8, 9]]
        with pytest.raises(BoundsError, match="item 1 .*not sorted"):
            SparseBatch(self.PATCH, swapped, batch.features, batch.bounds)
        with pytest.raises(DimensionError):
            SparseBatch(self.PATCH, batch.coords, batch.features, [0, 4, 9])

    @pytest.mark.parametrize("defect", ["unsorted", "duplicate", None])
    @pytest.mark.parametrize("empty", ["first", "middle", "last"])
    def test_empty_items_hide_no_unsorted_rows(self, empty, defect):
        # the defect sits in the batch's last two rows, which the first
        # row of no item may excuse
        tail = {
            "unsorted": [[0, 0, 2], [0, 0, 1]],
            "duplicate": [[0, 0, 1], [0, 0, 1]],
            None: [[0, 0, 1], [0, 0, 2]],
        }
        item = [[0, 0, 0]] + tail[defect]
        items = {"first": [[], item], "middle": [[[1, 1, 1], [2, 2, 2]], [], item], "last": [item, []]}[empty]
        coords = np.array([row for rows in items for row in rows], dtype=np.int64).reshape(-1, 3)
        bounds = np.cumsum([0] + [len(rows) for rows in items])
        features = np.zeros((len(coords), self.PATCH.l), dtype=np.float32)
        if defect is None:
            assert batch_coords_problem(self.PATCH, coords, bounds) is None
            assert SparseBatch(self.PATCH, coords, features, bounds).coords.tobytes() == coords.tobytes()
            return
        bad = items.index(item)
        assert batch_coords_problem(self.PATCH, coords, bounds) == (bad, "coordinates are not sorted and unique")
        with pytest.raises(BoundsError, match=f"item {bad} .*not sorted"):
            SparseBatch(self.PATCH, coords, features, bounds)

    def test_items_are_views_of_the_stack(self):
        patches = [self._sparse(seed, n) for seed, n in ((3, 4), (4, 0), (5, 6))]
        batch = stack_patches(patches)
        assert list(batch.bounds) == [0, 4, 4, 10]
        for item, patch in zip(batch, patches):
            assert item.coords.tobytes() == patch.coords.tobytes()
            assert item.features.tobytes() == patch.features.tobytes()
            assert not item.features.flags.writeable
        dense = stack_patches([DenseLatent.full(self.PATCH, v) for v in (1.0, 2.0, 3.0)])
        assert [float(item.data.max()) for item in dense] == [1.0, 2.0, 3.0]
        assert not dense[1].data.flags.writeable and dense[-1].data.base is not None
        for stacked in (batch, dense):  # an item is one latent; batches do not slice
            with pytest.raises(TypeError):
                stacked[1:3]
        with pytest.raises(DimensionError):
            stack_patches([dense[0], patches[0]])

    def test_first_nonfinite_item_skips_empty_items(self):
        values = np.ones((6, 2), dtype=np.float32)
        assert first_nonfinite_item(values, np.array([0, 2, 2, 6])) is None
        values[3, 1] = np.nan
        assert first_nonfinite_item(values, np.array([0, 2, 2, 6])) == 2
        huge = np.full((2, 3), np.finfo(np.float32).max, dtype=np.float32)
        assert first_nonfinite_item(huge) is None  # the float64 sum does not overflow


class TestOccupancy:
    def test_coords_round_trip(self):
        coords = np.array([[0, 0, 0], [7, 7, 7], [3, 1, 4]])
        grid = OccupancyGrid.from_coords(SMALL, coords)
        assert grid.count() == 3
        assert np.array_equal(grid.coords(), np.array(sorted(map(tuple, coords))))

    @pytest.mark.parametrize("dims", [SMALL, Dims(1, 3, 2, 6), Dims(3, 1, 1, 5)], ids=str)
    def test_coords_match_argwhere(self, dims):
        rng = np.random.default_rng(dims.M)
        grids = [np.zeros(dims.grid_shape, dtype=bool), np.ones(dims.grid_shape, dtype=bool)]
        grids += [rng.random(dims.grid_shape) < fill for fill in (0.1, 0.5)]
        for occupied in grids:
            got, expected = OccupancyGrid(dims, occupied).coords(), ref.occupancy_coords(occupied)
            assert got.dtype == np.int64 and got.shape == expected.shape and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()

    def test_coords_peak_below_40_bytes_per_voxel(self):
        dims = Dims(4, 4, 8, 32)
        grid = OccupancyGrid(dims, np.random.default_rng(0).random(dims.grid_shape) < 0.2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grid.coords()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 40 * grid.count()


class TestSchedule:
    def test_linear(self):
        s = Schedule.linear(0.8, 5)
        assert len(s) == 5
        assert s.times[0] == pytest.approx(0.8)
        assert s.times[-1] == 0.0

    @pytest.mark.parametrize(
        "times",
        [
            (1.0,),
            (0.5, 0.6, 0.0),
            (0.5, 0.2, 0.1),
            (1.2, 0.5, 0.0),
            (0.5, 0.5, 0.0),
        ],
    )
    def test_rejects_bad_sequences(self, times):
        with pytest.raises(ValueError):
            Schedule(times)


class TestTensorIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5), dtype=np.float32)
        path = tmp_path / "t.xlt"
        tensorio.write_tensor(path, arr)
        back = tensorio.read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_magic(self):
        blob = tensorio.tensor_to_bytes(np.zeros(2, dtype=np.float32))
        assert blob[:8] == b"XLT1\x00\x00\x00\x00"

    def test_bad_magic(self):
        with pytest.raises(ParseError) as err:
            tensorio.tensor_from_bytes(b"NOPE0000" + b"\x00" * 16)
        assert err.value.offset == 0

    def test_truncated(self):
        blob = tensorio.tensor_to_bytes(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(ParseError):
            tensorio.tensor_from_bytes(blob[:-5])

    def test_trailing_bytes(self):
        blob = tensorio.tensor_to_bytes(np.ones(3, dtype=np.float32))
        with pytest.raises(ParseError):
            tensorio.tensor_from_bytes(blob + b"x")

    @settings(max_examples=300)
    @given(st.data())
    def test_any_bytes_give_tensor_or_parse_error(self, data):
        valid = tensorio.tensor_to_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
        edits = st.lists(
            st.tuples(st.integers(0, len(valid)), st.binary(min_size=1, max_size=8)),
            min_size=1, max_size=3,
        ).map(lambda cuts: _splice(valid, cuts))
        huge_dim = valid[:12] + b"\xff" * 4
        blob = data.draw(st.one_of(st.binary(max_size=64), edits, st.just(huge_dim)))
        try:
            back = tensorio.tensor_from_bytes(blob)
        except TiledFlowError:
            return
        assert back.dtype == np.float32 and 4 * back.size + 12 + 4 * back.ndim == len(blob)


def _splice(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for at, chunk in edits:
        out[at : at + len(chunk)] = chunk
    return bytes(out)
