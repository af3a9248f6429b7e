import contextlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiledflow.errors import BoundsError, CoordinateSetError, DimensionError, ParseError, TiledFlowError
from tiledflow.lattice import (
    DenseBatch,
    DenseLatent,
    Dims,
    OccupancyGrid,
    Schedule,
    SparseBatch,
    SparseLatent,
    checked_coords,
    first_nonfinite_item,
    first_unsorted_item,
    init_sparse_noise,
    lerp_latent,
    sample_gaussian,
    stack_patches,
)
from tiledflow import tensorio
from tiledflow.optim import PriorCells

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

    def test_latent_keeps_no_writable_alias_of_its_inputs(self):
        # the latent freezes the arrays it keeps, and reshapes or reorders
        # into a copy, so no later write by the caller reaches it
        c, unsorted = np.array([[0, 0, 0], [1, 1, 1]]), np.array([[1, 1, 1], [0, 0, 0]])
        f, g = np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32)
        flat = np.zeros(8, np.float32)
        S = SparseLatent(Dims(1, 1, 4, 8), c, f)
        reshaped = SparseLatent(Dims(1, 1, 4, 8), [[0, 0, 0], [1, 1, 1]], flat)
        sorted_copy = SparseLatent(Dims(1, 1, 4, 8), unsorted, g)
        assert unsorted.flags.writeable and g.flags.writeable  # copies were kept, so nothing is frozen
        writes = ((c, 1, c[0]), (f, (0, 0), np.nan), (flat, 0, np.nan), (unsorted, 0, 0), (g, (0, 0), np.nan))
        for array, index, value in writes:
            with contextlib.suppress(ValueError):  # assignment destination is read-only
                array[index] = value
        assert S.coords.tolist() == sorted_copy.coords.tolist() == [[0, 0, 0], [1, 1, 1]]
        assert not (S.features.any() or reshaped.features.any() or sorted_copy.features.any())

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

    @pytest.mark.parametrize(
        "bounds, text",
        [
            (np.array([0, 1.5, 3]), r"batch bounds \[0\.0, 1\.5, 3\.0\] are not whole numbers"),
            (np.array([0, np.nan, 3]), "are not whole numbers"),
            (np.array([0, 1 + 0j, 3]), "are not whole numbers"),
            (np.array(["0", "1", "3"]), "are not whole numbers"),
            (np.array([0, np.inf, 3]), "do not split 3 rows"),
            (np.array([0, 2**63 + 5, 3], dtype=np.uint64), "do not split 3 rows"),
            (np.array([[0, 1, 3]]), "do not split 3 rows"),
            (np.array(3), "do not split 3 rows"),
        ],
        ids=["fraction", "nan", "complex", "str", "inf", "uint64-above-int64", "2-D", "0-D"],
    )
    def test_sparse_batch_bounds_are_whole_row_numbers(self, bounds, text):
        coords, features = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 2]]), np.zeros((3, self.PATCH.l))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match=text):
                SparseBatch(self.PATCH, coords, features, bounds)
            whole = SparseBatch(self.PATCH, coords, features, np.array([0.0, 1.0, 3.0]))
        assert whole.bounds.dtype == np.int64 and whole.bounds.tolist() == [0, 1, 3]

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
            assert first_unsorted_item(coords, self.PATCH, bounds) is None
            assert SparseBatch(self.PATCH, coords, features, bounds).coords.tobytes() == coords.tobytes()
            return
        bad = items.index(item)
        assert first_unsorted_item(coords, self.PATCH, bounds) == bad
        with pytest.raises(BoundsError, match=f"^item {bad} of a sparse batch: coordinates are not sorted and unique$"):
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


class TestWholeCoordinates:
    """Every constructor that takes coordinates refuses a dtype that is not
    real numbers, and a value that is not a finite whole number, before
    any cast, so nothing is truncated to a cell or wrapped, and names a
    coordinate outside the grid as given, as ints."""

    BUILDS = {
        "latent": lambda c: SparseLatent(SMALL, c, np.zeros((len(c), SMALL.l))),
        "batch": lambda c: SparseBatch(SMALL, c, np.zeros((len(c), SMALL.l)), [0, len(c)]),
        "occupancy": lambda c: OccupancyGrid.from_coords(SMALL, c),
        "checked": lambda c: checked_coords(SMALL, c),
    }

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize(
        "coords, named",
        [
            ([[0.9, 3.7, 1.2]], r"\[0\.9, 3\.7, 1\.2\] of point 0 is not a finite whole number"),
            ([[1, 2, 3], [0.0, 2.5, 0.0]], r"\[0\.0, 2\.5, 0\.0\] of point 1 is not"),
            ([[0, np.inf, 0]], r"\[0\.0, inf, 0\.0\] of point 0 is not"),
            ([[2, 2, 2], [np.nan, 0, 0]], r"\[nan, 0\.0, 0\.0\] of point 1 is not"),
            ([[1e30, 0, 0]], r"coordinate \(1000000000000000019884624838656, 0, 0\) outside grid"),
            ([[0, 0, -1.0]], r"coordinate \(0, 0, -1\) outside grid"),
            ([[99, 0, 0]], r"coordinate \(99, 0, 0\) outside grid"),
            (np.array([[2**63 + 5, 0, 0]], np.uint64), r"coordinate \(9223372036854775813, 0, 0\) outside grid"),
            ([[1 + 1j, 0, 0]], "coordinates of dtype complex128 are not real numbers"),
            ([["1", "2", "3"]], "coordinates of dtype <U1 are not real numbers"),
            (np.array([["a", 0, 0]], dtype=object), "coordinates of dtype object are not real numbers"),
        ],
        ids=[
            "fraction", "second-point", "inf", "nan", "huge", "negative-float", "int-outside",
            "uint64-above-int64", "complex", "str", "object",
        ],
    )
    def test_refused_before_any_cast(self, build, coords, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundsError, match=named):
                self.BUILDS[build](np.array(coords))

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (2, 4), (1, 2, 3), (6,), (0,)], ids=str)
    def test_only_points_of_three_coordinates_are_read(self, build, shape):
        coords = np.arange(np.prod(shape, dtype=int)).reshape(shape) % 4
        with pytest.raises(DimensionError, match=re.escape(f"coordinates of shape {shape} are not (n, 3) points")):
            self.BUILDS[build](coords)

    @pytest.mark.parametrize("build", BUILDS)
    def test_whole_floats_are_their_integers(self, build):
        coords = np.array([[0, 0, 0], [1, 2, 3], [7, 6, 5]])
        ints, floats = self.BUILDS[build](coords), self.BUILDS[build](coords.astype(np.float32))
        key = {"occupancy": lambda g: g.occupied, "checked": lambda c: c[0]}.get(build, lambda x: x.coords)
        assert key(floats).dtype == key(ints).dtype and key(floats).tobytes() == key(ints).tobytes()


# (160, 32, 32): the x side and its edge do not fit an int8
GATE = Dims(a=5, b=1, N=2, M=32, C=1, l=1)


def _gate_values(side: int) -> list:
    return [-1, 0, 1, side - 1, side, 2**63 + 5, 0.5, np.nan, np.inf]


def _fits(value, dtype) -> bool:
    """Whether `value` is exactly a value of the bool or integer `dtype`
    (other dtypes take any value, rounded or as a string)."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return value in (0, 1)
    if dtype.kind in "iu":
        return isinstance(value, int) and np.iinfo(dtype).min <= value <= np.iinfo(dtype).max
    return True


def _gate_array(values: list, dtype) -> np.ndarray:
    """The array of `values` (nested lists) in `dtype`: a float16
    overflow is inf, a string dtype holds each value's text."""
    if np.dtype(dtype).kind == "U":
        values = np.vectorize(str, otypes=[object])(np.array(values, dtype=object)).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.array(values, dtype=dtype)


def _splits(bounds: np.ndarray, rows: int) -> bool:
    """Whether `bounds`, as given, are a batch's bounds of `rows` rows:
    1-D real whole numbers from 0 to `rows`, never decreasing."""
    if bounds.ndim != 1 or bounds.dtype.kind not in "biuf" or not len(bounds):
        return False
    values = bounds.tolist()
    return all(float(v).is_integer() for v in values) and values[0] == 0 and values[-1] == rows and values == sorted(values)


class TestCoordinateGate:
    """`int_coords` is the one gate for every coordinate array: it reads
    only an (n, 3) array or one (3,) point of bool, integer and real
    floating values, and checks them, unsigned included, as given, before
    the cast could wrap or truncate them.  A batch's bounds are checked
    as given too."""

    BUILDS = {
        "latent": lambda dims, c, rows, bounds: SparseLatent(dims, c, np.zeros((rows, dims.l))),
        "batch": lambda dims, c, rows, bounds: SparseBatch(dims, c, np.zeros((rows, dims.l)), bounds),
        "occupancy": lambda dims, c, rows, bounds: OccupancyGrid.from_coords(dims, c),
        "prior": lambda dims, c, rows, bounds: PriorCells.build(c, dims),
    }
    DTYPES = [
        np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
        np.float16, np.float32, np.float64, np.complex128, np.str_, np.object_,
    ]
    # what each shape makes of the drawn (n, 3) points: only the first two
    # are points, the rest a DimensionError
    SHAPES = {
        "points": lambda a: a,
        "point": lambda a: a[0],
        "pairs": lambda a: a[:, :2],
        "quads": lambda a: np.concatenate([a, a[:, :1]], axis=1),
        "3-D": lambda a: a[None],
        "empty": lambda a: a.reshape(-1)[:0],
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=600)
    @given(st.sampled_from(sorted(BUILDS)), st.sampled_from(DTYPES), st.sampled_from(sorted(SHAPES)), st.data())
    def test_any_array_gives_its_cells_or_a_typed_error(self, build, dtype, shape, data):
        axes = [st.sampled_from([v for v in _gate_values(side) if _fits(v, dtype)]) for side in GATE.grid_shape]
        rows = data.draw(st.lists(st.tuples(*axes), min_size=shape == "point", max_size=4))
        coords = self.SHAPES[shape](_gate_array(rows, dtype).reshape(-1, 3))
        points = shape in ("points", "point")
        given_rows = list(map(tuple, coords.reshape(-1, 3).tolist())) if points else None
        n = len(given_rows) if points else len(rows)
        bounds = None
        if build == "batch":
            cut = st.sampled_from([0, 1, n, n + 1, -1, 2**63 + 5, 0.5, np.nan, np.inf])
            values = [data.draw(st.sampled_from([0, 1]))] + data.draw(st.lists(cut, max_size=2)) + [n]
            bounds_dtype = data.draw(st.sampled_from([d for d in self.DTYPES if all(_fits(v, d) for v in values)]))
            bounds = _gate_array(data.draw(st.sampled_from([values, [values]])), bounds_dtype)
        try:
            value = self.BUILDS[build](GATE, coords, n, bounds)
        except DimensionError as exc:
            assert not points or (build == "batch" and not _splits(bounds, n)), str(exc)
            return
        except BoundsError as exc:
            assert points and ("of a sparse batch" not in str(exc) or _splits(bounds, n)), str(exc)
            named = re.search(r"\((-?\d+), (-?\d+), (-?\d+)\) outside grid", str(exc))
            assert named is None or tuple(map(int, named.groups())) in given_rows, str(exc)
            return
        except CoordinateSetError as exc:
            repeated = points and len(set(given_rows)) < len(given_rows)
            assert (build, repeated) == ("latent", True) or (build, points, n) == ("prior", True, 0), str(exc)
            return
        assert points and coords.dtype.kind in "biuf"
        if build == "prior":
            cells = [tuple(int(c[k]) for c in value.cells) for k in value.inverse]
            assert cells == [tuple(v // GATE.ratio for v in row) for row in given_rows]
            return
        got = value.coords() if build == "occupancy" else value.coords
        want = {"latent": sorted(given_rows), "batch": given_rows, "occupancy": sorted(set(given_rows))}[build]
        assert got.dtype == np.int64 and list(map(tuple, got.tolist())) == want
        if build == "batch":
            assert _splits(bounds, n) and value.bounds.dtype == np.int64
            assert value.bounds.tolist() == [int(v) for v in bounds.tolist()]


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
