from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiledflow import flowcore
from tiledflow.errors import ConfigError, DimensionError, DivergenceError, ProviderError, SingularityError
from tiledflow.flowcore import (
    Conditioner,
    GlobalOracleProvider,
    OracleConditioner,
    PillarConditions,
    VectorFieldProvider,
    box_condition,
    dilated_field,
    euler_integrate,
    extended_field,
    gamma,
    mixed_field,
    read_oracle_conditions,
)
from tiledflow.lattice import (
    DenseBatch,
    DenseLatent,
    Dims,
    Schedule,
    SparseLatent,
    first_nonfinite_item,
    init_sparse_noise,
    sample_gaussian,
    stack_patches,
)
from tiledflow.patchwork import (
    AgreedField,
    DilatedPartition,
    PatchGrid,
    SparseWindowPlan,
    dilated_partition,
    make_patch_grid,
)
from tiledflow.priors import ConditionEmbedding

from reference_copies import DefaultPathOracle, FixedReply, OracleField, ZeroFieldProvider, pillar_condition


DIMS = Dims(2, 2, 4, 8, C=1, l=3)


def random_dense(dims, seed):
    rng = np.random.default_rng(seed)
    return DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))


def restricted_field(Z, grid, provider):
    """Z's window field on `grid` through the default `evaluate_windows`:
    the gathered windows in one `evaluate_batch` call, the path on which
    the oracle cuts box restrictions (a mode-3 batch of windows takes it)."""
    plan = SparseWindowPlan(grid, Z.coords)
    conditions = OracleConditioner().window_conditions(grid)
    values = VectorFieldProvider.evaluate_windows(provider, Z, plan, conditions, 0.5)
    return plan.combine(values)


class TestOracleField:
    """The oracle field (Z - target) / t of one patch: the global oracle
    over a patch-sized target, asked for its one window."""

    WINDOW = box_condition(0, 0, DIMS.N)

    def test_fixed_point(self):
        target = random_dense(DIMS.patch_dims(), 0)
        field = GlobalOracleProvider(ss_target=target)
        out = field.evaluate(target, self.WINDOW, 0.5)
        assert np.all(out.data == 0)

    def test_endpoint_derivative(self):
        target = random_dense(DIMS.patch_dims(), 1)
        eps = random_dense(DIMS.patch_dims(), 2)
        out = GlobalOracleProvider(ss_target=target).evaluate(eps, self.WINDOW, 1.0)
        assert np.allclose(out.data, eps.data - target.data, atol=1e-6)

    def test_single_euler_step_lands_on_target(self):
        target = random_dense(DIMS.patch_dims(), 3)
        eps = random_dense(DIMS.patch_dims(), 4)
        field = GlobalOracleProvider(ss_target=target)
        final = euler_integrate(eps, Schedule((1.0, 0.0)), lambda Z, t: field.evaluate(Z, self.WINDOW, t))
        assert np.abs(final.data - target.data).max() < 1e-5

    def test_singularity(self):
        target = random_dense(DIMS.patch_dims(), 5)
        with pytest.raises(SingularityError):
            GlobalOracleProvider(ss_target=target).evaluate(target, self.WINDOW, 0.0)


class TestGamma:
    def test_endpoints(self):
        assert gamma(1.0, 5) == 1.0
        assert gamma(1.0, 3) == 1.0
        assert gamma(0.0, 5) == 0.0

    def test_midpoint(self):
        assert gamma(0.5, 5) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_for_alpha_5(self):
        ts = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        vals = [gamma(float(t), 5) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestExtendedField:
    def test_matches_global_oracle(self):
        # per-patch oracle restrictions must merge to the global oracle field
        target = random_dense(DIMS, 10)
        Z = random_dense(DIMS, 11)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        provider = GlobalOracleProvider(ss_target=target)
        out = extended_field(Z, 0.5, grid, provider, OracleConditioner())
        expected = (Z.data - target.data) / np.float32(0.5)
        assert np.abs(out.data - expected).max() < 1e-6

    def test_single_window_equals_provider_output(self):
        dims = Dims(1, 1, 4, 4)
        target = random_dense(dims, 12)
        Z = random_dense(dims, 13)
        grid = make_patch_grid(dims, 4, 4)
        provider = GlobalOracleProvider(ss_target=target)
        out = extended_field(Z, 0.25, grid, provider, OracleConditioner())
        direct = provider.evaluate(Z, OracleConditioner().window_condition(grid.window(0, 0)), 0.25)
        assert np.array_equal(out.data, direct.data)

    def test_window_conditions_built_once_per_grid(self):
        class BoxesOnly(Conditioner):
            """Defines only `window_condition`, and no __init__ chain."""

            def __init__(self):
                self.calls = 0

            def window_condition(self, window):
                self.calls += 1
                return box_condition(window.x0, window.y0, window.K)

        provider = GlobalOracleProvider(ss_target=random_dense(DIMS, 10))
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        conditioner = BoxesOnly()
        for seed, t in ((11, 0.5), (12, 0.3)):
            Z = random_dense(DIMS, seed)
            want = extended_field(Z, t, grid, provider, OracleConditioner())
            assert extended_field(Z, t, grid, provider, conditioner).data.tobytes() == want.data.tobytes()
        assert conditioner.calls == grid.count
        assert conditioner.window_conditions(grid) is conditioner.window_conditions(grid)
        other = make_patch_grid(DIMS, 4, DIMS.N)
        assert conditioner.window_conditions(other) == tuple(
            OracleConditioner().window_condition(w) for w in other.windows()
        )
        assert conditioner.calls == grid.count + other.count

    @pytest.mark.parametrize("a,b,K", [(1, 1, 4), (2, 3, 4), (2, 2, 8)])
    def test_stacked_pillar_conditions_equal_per_sample(self, a, b, K):
        partition = dilated_partition(Dims(a, b, 4, 8), K, seed=a + b + K)
        conditioner = OracleConditioner()
        stacked = conditioner.dilated_conditions(partition)
        per_sample = [pillar_condition(partition.src_x[n], partition.src_y[n]) for n in range(len(partition))]
        assert [c.data for c in stacked] == [c.data for c in per_sample]
        assert list(stacked) == per_sample
        assert stacked[::-1] == per_sample[::-1] and stacked[-1] == per_sample[-1]
        with pytest.raises(TypeError):
            stacked[0] = per_sample[0]
        with pytest.raises(IndexError):
            stacked[len(partition)]

    def test_in_process_dilated_field_encodes_no_condition(self, monkeypatch):
        # the oracle knows the partition's maps: no item of its pillar
        # conditions is read, and the field keeps the default path's bits
        dims = Dims(2, 3, 4, 8, C=2, l=3)
        provider = GlobalOracleProvider(ss_target=random_dense(dims, 30))
        reads = []
        encode = PillarConditions.__getitem__
        monkeypatch.setattr(PillarConditions, "__getitem__", lambda self, n: reads.append(n) or encode(self, n))
        for seed, t in ((31, 0.5), (32, 0.3)):
            Z = random_dense(dims, seed)
            partition = dilated_partition(dims, dims.N, seed=seed)
            field = dilated_field(Z, t, partition, provider, OracleConditioner())
            assert reads == []
            want = dilated_field(Z, t, partition, DefaultPathOracle(ss_target=provider.ss_target), OracleConditioner())
            assert set(range(len(partition))) <= set(reads)  # the default path reads every item
            assert field.data.tobytes() == want.data.tobytes()
            reads.clear()

    def test_dense_latent_must_be_the_grids_lattice(self):
        # a wider Z holds every window of the grid, but the grid's field
        # is not a field over Z: neither reply may be taken for one
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        Z = random_dense(Dims(3, 2, 4, 8), 22)
        for provider in (ZeroFieldProvider(), FixedReply(AgreedField(np.zeros_like(Z.data)))):
            with pytest.raises(DimensionError, match=r"tile lattice \(8, 8, 4, 1\), not \(12, 8, 4, 1\)"):
                extended_field(Z, 0.5, grid, provider, OracleConditioner())

    def test_zero_provider(self):
        Z = random_dense(DIMS, 14)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        out = extended_field(Z, 0.5, grid, ZeroFieldProvider(), OracleConditioner())
        assert np.all(out.data == 0)

    def test_sparse_matches_global_oracle(self):
        rng = np.random.default_rng(15)
        coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.1)
        target = init_sparse_noise(coords, DIMS, seed=1)
        Z = init_sparse_noise(coords, DIMS, seed=2)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        provider = GlobalOracleProvider(slat_target=target)
        out = extended_field(Z, 0.5, grid, provider, OracleConditioner())
        assert np.array_equal(out.coords, Z.coords)
        expected = (Z.features - target.features) / np.float32(0.5)
        assert np.abs(out.features - expected).max() < 1e-6

    def test_provider_failure_carries_patch_index(self):
        class Broken(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                raise RuntimeError("boom")

        Z = random_dense(DIMS, 18)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with pytest.raises(ProviderError, match=r"patch \(0, 0\)"):
            extended_field(Z, 0.5, grid, Broken(), OracleConditioner())

    @pytest.mark.parametrize("failing", [1, 2, 8])
    def test_failure_on_one_window_names_it(self, failing):
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        window = grid.windows()[failing]  # the field's item `failing`

        class FailsAtOneWindow(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if read_oracle_conditions([condition])["box"][0, :2].tolist() == [window.x0, window.y0]:
                    raise RuntimeError("boom")
                return patch.with_data(np.zeros_like(patch.data))

        Z = random_dense(DIMS, 18)
        with pytest.raises(ProviderError, match=rf"patch \({window.i}, {window.j}\): boom"):
            extended_field(Z, 0.5, grid, FailsAtOneWindow(), OracleConditioner())

    def test_default_batch_reports_failing_item(self):
        class FailsOnSecond(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if condition == "second":
                    raise RuntimeError("boom")
                return patch

        patch = random_dense(DIMS.patch_dims(), 1)
        batch = stack_patches([patch] * 3)
        with pytest.raises(ProviderError, match="boom") as err:
            FailsOnSecond().evaluate_batch(batch, ["first", "second", "third"], 0.5)
        assert err.value.item == 1
        empty = DenseBatch(patch.dims, np.empty((0,) + patch.data.shape, dtype=np.float32))
        assert FailsOnSecond().evaluate_batch(empty, [], 0.5).shape == (0,) + patch.data.shape

    def test_wrong_vector_count_rejected(self):
        class Short(VectorFieldProvider):
            def evaluate_batch(self, batch, conditions, t):
                return batch.data[1:]

        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with pytest.raises(ProviderError, match="returned 8 vectors"):
            extended_field(random_dense(DIMS, 20), 0.5, grid, Short(), OracleConditioner())

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failure_on_one_dilated_sample_names_it(self, failing):
        partition = dilated_partition(DIMS, DIMS.N, seed=0)
        bad = OracleConditioner().dilated_conditions(partition)[failing].data

        class FailsAtOneSample(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if condition.data == bad:
                    raise RuntimeError("boom")
                return patch

        with pytest.raises(ProviderError, match=f"dilated sample {failing}: boom"):
            dilated_field(random_dense(DIMS, 21), 0.5, partition, FailsAtOneSample(), OracleConditioner())

    @pytest.mark.parametrize("change", ["drop_row", "empty"])
    def test_provider_changing_coordinates_names_window(self, change):
        class Reshaping(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                x0, y0, _ = read_oracle_conditions([condition])["box"][0].tolist()
                if (x0, y0) == (4, 4):  # window (1, 1) of the d = 2 grid
                    if change == "drop_row":
                        return SparseLatent(patch.dims, patch.coords[1:], patch.features[1:])
                    return SparseLatent.empty(patch.dims)
                return patch.with_features(np.zeros_like(patch.features))

        rng = np.random.default_rng(20)
        Z = init_sparse_noise(np.argwhere(rng.random(DIMS.grid_shape) < 0.3), DIMS, seed=3)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        with pytest.raises(ProviderError, match=r"patch \(1, 1\)"):
            extended_field(Z, 0.5, grid, Reshaping(), OracleConditioner())

    def test_plan_for_other_coordinates_rejected(self):
        rng = np.random.default_rng(21)
        coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.3)
        Z = init_sparse_noise(coords, DIMS, seed=4)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        other_grid = make_patch_grid(DIMS, 1, DIMS.M)
        for plan in (SparseWindowPlan(grid, Z.coords[1:]), SparseWindowPlan(other_grid, Z.coords)):
            with pytest.raises(ConfigError):
                extended_field(Z, 0.5, grid, ZeroFieldProvider(), OracleConditioner(), plan=plan)

    @pytest.mark.parametrize(
        "bound,value,cached", [("SLAT_BOX_LIMIT", 2, 2), ("SLAT_BOX_ROWS", 0, 0)]
    )
    def test_oracle_restriction_cache_is_bounded(self, monkeypatch, bound, value, cached):
        monkeypatch.setattr(flowcore, bound, value)
        rng = np.random.default_rng(22)
        coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.3)
        target = init_sparse_noise(coords, DIMS, seed=5)
        Z = init_sparse_noise(coords, DIMS, seed=6)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        provider = GlobalOracleProvider(slat_target=target)
        for _ in range(2):  # the second call mixes cached and uncached boxes
            out = restricted_field(Z, grid, provider)
            expected = (Z.features - target.features) / np.float32(0.5)
            assert np.abs(out.features - expected).max() < 1e-6
        assert len(provider._slat_boxes) == cached

    def test_oracle_restriction_cache_shared_by_threads(self):
        # a ProviderServer calls one provider from several threads at once
        import sys
        import threading

        rng = np.random.default_rng(23)
        coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.3)
        target = init_sparse_noise(coords, DIMS, seed=7)
        Z = init_sparse_noise(coords, DIMS, seed=8)
        grid = make_patch_grid(DIMS, 4, DIMS.M)
        batch = SparseWindowPlan(grid, Z.coords).gather(Z)
        conditions = OracleConditioner().window_conditions(grid)
        expected = GlobalOracleProvider(slat_target=target).evaluate_batch(batch, conditions, 0.5).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                provider = GlobalOracleProvider(slat_target=target)
                out = []

                def answer():
                    out.append(provider.evaluate_batch(batch, conditions, 0.5).tobytes())

                threads = [threading.Thread(target=answer) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert out == [expected, expected]
                assert len(provider._slat_boxes) == grid.count
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_builtin_oracle_answers_each_chunk_with_one_batch_call(self, monkeypatch, d):
        """A field is one chunk, whatever its window count: on the
        layout's own conditions the oracle answers the agreed field with
        no batch call, and on any others with one batch call."""
        calls = {"evaluate": 0, "evaluate_batch": 0}

        def counting(name):
            real = getattr(GlobalOracleProvider, name)

            def spy(self, *args):
                calls[name] += 1
                return real(self, *args)

            return spy

        for name in calls:
            monkeypatch.setattr(GlobalOracleProvider, name, counting(name))
        rng = np.random.default_rng(24)
        slat_target = init_sparse_noise(np.argwhere(rng.random(DIMS.grid_shape) < 0.3), DIMS, seed=9)
        provider = GlobalOracleProvider(ss_target=random_dense(DIMS, 25), slat_target=slat_target)
        Z = random_dense(DIMS, 26)
        dense_grid, sparse_grid = make_patch_grid(DIMS, d, DIMS.N), make_patch_grid(DIMS, d, DIMS.M)
        partition = dilated_partition(DIMS, DIMS.N)
        for cond, batches in ((OracleConditioner(), 0), (ReversedConditions(), 1)):
            fields = [
                lambda: extended_field(Z, 0.5, dense_grid, provider, cond),
                lambda: extended_field(slat_target, 0.5, sparse_grid, provider, cond),
                lambda: dilated_field(Z, 0.5, partition, provider, cond),
            ]
            for field_call in fields:
                calls.update(evaluate=0, evaluate_batch=0)
                field_call()
                assert calls == {"evaluate": 0, "evaluate_batch": batches}


class ReversedConditions(OracleConditioner):
    """The oracle's conditions in reverse item order: valid, but not the
    layout's own."""

    def window_conditions(self, grid):
        return super().window_conditions(grid)[::-1]

    def dilated_conditions(self, partition):
        return super().dilated_conditions(partition)[::-1]


@st.composite
def _oracle_layout_cases(draw):
    N = draw(st.sampled_from([1, 2, 4]))
    dims = Dims(
        draw(st.integers(1, 3)), draw(st.integers(1, 2)), N, N * draw(st.sampled_from([1, 2])),
        C=draw(st.integers(1, 2)), l=draw(st.integers(1, 4)),
    )
    layout = draw(st.sampled_from(["plan", "grid", "partition"]))
    K = dims.M if layout == "plan" else dims.N
    d = draw(st.sampled_from([k for k in (1, 2, 4) if K % k == 0]))
    kinds = ["own", "shuffled", "moved", "short", "kind", "empty", "dims", "overflow"]
    conditions = draw(st.sampled_from(kinds + (["rows"] if layout == "plan" else [])))
    t = draw(st.sampled_from([0.5, 1.0, 0.37, 1e-3, 0.0]))
    return dims, layout, d, conditions, t, draw(st.integers(0, 2**32 - 1))


def _outcome(call):
    try:
        return "ok", call().tobytes()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "item", None)


class TestNonFiniteReplies:
    """A non-finite reply value fails the field call and names the window
    (or sample) holding the first one, as a scan of the reply in window
    order does; the sparse check reads the merged rows, where every reply
    value lands."""

    GRID = make_patch_grid(DIMS, 2, DIMS.M)  # stride 4: a row in block (1, 1) is in 4 windows

    def _sparse_reply(self, dtype=np.float32):
        Z = init_sparse_noise(np.argwhere(np.ones(DIMS.grid_shape, dtype=bool)), DIMS, seed=5)
        plan = SparseWindowPlan(self.GRID, Z.coords)
        row = int(np.flatnonzero((Z.coords == (5, 6, 2)).all(axis=1))[0])
        at = {}  # window (i, j) -> the reply position of the row in it
        for w, lo, hi in zip(self.GRID.windows(), plan.bounds[:-1], plan.bounds[1:]):
            hit = np.flatnonzero(plan.rows[lo:hi] == row)
            if len(hit):
                at[(w.i, w.j)] = int(lo + hit[0])
        assert list(at) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        return Z, plan, np.zeros((len(plan.rows), DIMS.l), dtype=dtype), at

    def _fails_naming(self, Z, plan, reply, window, agreed=False):
        # an agreed `reply` is the latent's field, scanned in window order
        ordered = plan.window_order(reply) if agreed else reply
        with np.errstate(invalid="ignore"):  # inf - inf in the scan's sum
            scanned = first_nonfinite_item(np.asarray(ordered, dtype=np.float32), plan.bounds)
        windows = self.GRID.windows()
        assert (windows[scanned].i, windows[scanned].j) == window
        provider = FixedReply(AgreedField(reply) if agreed else reply)
        with pytest.raises(ProviderError, match=rf"non-finite values for patch \({window[0]}, {window[1]}\)$"):
            extended_field(Z, 0.5, self.GRID, provider, OracleConditioner(), plan=plan)

    def test_nan_in_a_later_window_of_a_row(self):
        Z, plan, values, at = self._sparse_reply()
        values[at[(1, 1)], 2] = np.nan
        self._fails_naming(Z, plan, values, (1, 1))

    def test_opposite_infinities_in_two_windows_of_a_row(self):
        Z, plan, values, at = self._sparse_reply()
        values[at[(0, 1)], 0] = np.inf
        values[at[(1, 0)], 0] = -np.inf
        self._fails_naming(Z, plan, values, (0, 1))

    def test_float64_reply_above_float32_range(self):
        Z, plan, values, at = self._sparse_reply(np.float64)
        values[at[(1, 0)], 1] = 1e39
        with np.errstate(over="ignore"):
            self._fails_naming(Z, plan, values, (1, 0))
            # an agreed field casts alike
            agreed = np.zeros(Z.features.shape)
            agreed[plan.rows[at[(1, 0)]], 1] = 1e39
            self._fails_naming(Z, plan, agreed, (0, 0), agreed=True)

    def test_largest_finite_reply_merges(self):
        Z, plan, values, at = self._sparse_reply()
        top = np.finfo(np.float32).max
        values[list(at.values())] = top
        merged = extended_field(Z, 0.5, self.GRID, FixedReply(values), OracleConditioner(), plan=plan)
        assert (merged.features[plan.rows[at[(0, 0)]]] == top).all()

    @pytest.mark.parametrize(
        "windows", [[(0, 0), (0, 1), (1, 0), (1, 1)], [(1, 1)], [(1, 0), (0, 1)], [(1, 1), (1, 0)]]
    )
    def test_nan_in_a_ranked_reply_names_the_first_window(self, windows):
        # a reply not in window order (an agreed field) with NaN at one row
        # per listed window, the row whose first window it is: the error
        # names the first listed window in window order, as a scan of the
        # field's window-order expansion does
        Z, plan, _, _ = self._sparse_reply()
        field = np.zeros(Z.features.shape, dtype=np.float32)
        for i, j in windows:  # block (i + 1, j + 1) of the stride-4 grid
            row = np.flatnonzero((Z.coords == (4 * i + 5, 4 * j + 6, 2)).all(axis=1))
            field[row, 1] = np.nan
        self._fails_naming(Z, plan, field, min(windows), agreed=True)

    def test_ranked_reply_of_another_shape_rejected(self):
        # an agreed field must have the latent's own shape, not the
        # stacked windows' shape or one row fewer
        Z, plan, values, _ = self._sparse_reply()
        for wrong in (values, Z.features[1:]):
            with pytest.raises(ProviderError, match=r"returned values of shape \(\d+, 3\) for patch .*expected \(2048, 3\)"):
                extended_field(Z, 0.5, self.GRID, FixedReply(AgreedField(wrong)), OracleConditioner(), plan=plan)

    def test_ranked_reply_on_a_dense_grid_rejected(self):
        # the stacked windows wrapped as an agreed field are not the lattice
        Z = random_dense(DIMS, 23)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        windows = np.zeros((grid.count,) + DIMS.patch_dims().dense_shape, dtype=np.float32)
        with pytest.raises(ProviderError, match=r"returned values of shape \(9, 4, 4, 4, 1\) for patch .*expected \(8, 8, 4, 1\)"):
            extended_field(Z, 0.5, grid, FixedReply(AgreedField(windows)), OracleConditioner())
        partition = dilated_partition(DIMS, DIMS.N, seed=0)
        with pytest.raises(ProviderError, match=r"values of shape \(\) for dilated sample 0 to dilated sample 3, expected \(8, 8, 4, 1\)"):
            dilated_field(Z, 0.5, partition, FixedReply(AgreedField(None)), OracleConditioner())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dense_window_and_dilated_sample_named(self, value):
        Z = random_dense(DIMS, 23)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        windows = np.zeros((grid.count,) + DIMS.patch_dims().dense_shape, dtype=np.float32)
        windows[4, 1, 2, 3, 0] = value  # window (1, 1)
        with pytest.raises(ProviderError, match=r"non-finite values for patch \(1, 1\)$"):
            extended_field(Z, 0.5, grid, FixedReply(windows), OracleConditioner())
        partition = dilated_partition(DIMS, DIMS.N, seed=0)
        samples = np.zeros((len(partition),) + DIMS.patch_dims().dense_shape, dtype=np.float32)
        samples[2, 0, 0, 0, 0] = value
        with pytest.raises(ProviderError, match=r"non-finite values for dilated sample 2$"):
            dilated_field(Z, 0.5, partition, FixedReply(samples), OracleConditioner())
        # as agreed fields: column (3, 5) lies in windows (0, 1), (0, 2), (1, 1) and (1, 2)
        field = np.zeros(DIMS.dense_shape, dtype=np.float32)
        field[3, 5, 1, 0] = value
        with pytest.raises(ProviderError, match=r"non-finite values for patch \(0, 1\)$"):
            extended_field(Z, 0.5, grid, FixedReply(AgreedField(field)), OracleConditioner())
        sample = int(np.flatnonzero((partition.src_x == 3) & (partition.src_y == 5))[0] // (DIMS.N * DIMS.N))
        with pytest.raises(ProviderError, match=rf"non-finite values for dilated sample {sample}$"):
            dilated_field(Z, 0.5, partition, FixedReply(AgreedField(field)), OracleConditioner())


class GivenConditions(OracleConditioner):
    """Hands every field the given conditions."""

    def __init__(self, conditions):
        self.conditions = conditions

    def window_conditions(self, grid):
        return self.conditions

    def dilated_conditions(self, partition):
        return self.conditions


def _layout_case(dims, layout, d, kind, seed):
    """A field on one of the three layouts, the oracle's target, the
    conditions of a case of `_oracle_layout_cases`, and whether the case
    keeps the layout's own conditions and a target that fits."""
    rng = np.random.default_rng(seed)
    target_dims = replace(dims, l=dims.l + 1, C=dims.C + 1) if kind == "dims" else dims

    def scaled(values):  # latent and target values +-3e38, whose differences overflow
        return np.sign(values) * np.float32(3e38) if kind == "overflow" else values

    if layout == "plan":
        grid = make_patch_grid(dims, d, dims.M)
        cells = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        keep = rng.random(len(cells)) < 0.5
        keep[rng.integers(len(cells))] = True
        Z = init_sparse_noise(cells[keep], dims, seed)
        Z = Z.with_features(scaled(Z.features))
        # a target missing some of Z's coordinates and holding others
        target = init_sparse_noise(cells[rng.random(len(cells)) < 0.5], target_dims, seed + 1)
        target = target.with_features(scaled(target.features))
        layout = SparseWindowPlan(grid, Z.coords)
        if kind == "rows" and len(Z) > 1:  # a latent with fewer rows than the plan
            Z = init_sparse_noise(Z.coords[1:], dims, seed)
        elif kind == "rows":
            kind = "own"
        oracle = dict(slat_target=target)
        conditions = list(OracleConditioner().window_conditions(grid))
        other = pillar_condition(np.zeros((2, 2), int), np.zeros((2, 2), int))
    else:
        # some cells -0.0 in Z and +0.0 in the target, whose field value is -0.0
        values = scaled(rng.standard_normal((2,) + dims.dense_shape, dtype=np.float32))
        values[0][rng.random(dims.dense_shape) < 0.2] = -0.0
        values[1][values[0] == 0] = 0.0
        Z = DenseLatent(dims, values[0])
        target = values[1] if kind != "dims" else rng.standard_normal(target_dims.dense_shape, dtype=np.float32)
        oracle = dict(ss_target=DenseLatent(target_dims, target))
        if layout == "grid":
            grid = make_patch_grid(dims, d, dims.N)
            layout = grid
            conditions = list(OracleConditioner().window_conditions(grid))
            other = pillar_condition(np.zeros((dims.N, dims.N), int), np.zeros((dims.N, dims.N), int))
        else:
            layout = dilated_partition(dims, dims.N, seed=seed % 1000)
            conditions = OracleConditioner().dilated_conditions(layout)
            other = box_condition(0, 0, dims.N)
    if kind in ("moved", "kind", "empty"):
        conditions = list(conditions)  # a partition's pillar conditions are read-only
    if kind == "shuffled" and len(conditions) > 1:
        conditions = conditions[1:] + conditions[:1]
    elif kind == "shuffled":
        kind = "own"
    elif kind == "moved":
        conditions[-1] = conditions[0] if len(conditions) > 1 else other
    elif kind == "short":
        conditions = conditions[:-1]
    elif kind == "kind":
        conditions[0] = other
    elif kind == "empty":
        conditions[-1] = ConditionEmbedding(b"")
    return Z, layout, oracle, conditions, kind in ("own", "overflow")


def _in_window_order(layout, reply):
    """`reply` in window order: an agreed field expanded by the layout's
    `window_order`, and any other reply as it is."""
    return layout.window_order(np.asarray(reply.values)) if isinstance(reply, AgreedField) else reply


class TestOraclePlanTarget:
    """A field on any layout, with the layout's own conditions, is one
    agreed field whose window order is the default path's bits; with any
    other conditions, or a target that does not fit, it takes the
    default path.  Either way the reply, the merged or scattered field,
    and any error are the default path's."""

    @settings(max_examples=200, deadline=None)
    @given(_oracle_layout_cases())
    def test_matches_default_path(self, case):
        dims, kind_of_layout, d, kind, t, seed = case
        Z, layout, targets, conditions, own = _layout_case(dims, kind_of_layout, d, kind, seed)
        provider, reference = GlobalOracleProvider(**targets), DefaultPathOracle(**targets)

        def reference_windows():
            # on a grid the agreed field is the merged lattice, so each
            # window's cut of it is the window's vector plus +0.0
            values = reference.evaluate_windows(Z, layout, conditions, t)
            return values + np.float32(0.0) if own and isinstance(layout, PatchGrid) else values

        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(lambda: _in_window_order(layout, provider.evaluate_windows(Z, layout, conditions, t)))
            assert got == _outcome(reference_windows)
            if got[0] == "ok":
                assert isinstance(provider.evaluate_windows(Z, layout, conditions, t), AgreedField) == own
            # the field through the engine: merged, scattered and checked alike
            if isinstance(layout, DilatedPartition):
                def field(oracle):
                    return dilated_field(Z, t, layout, oracle, GivenConditions(conditions)).data
            else:
                grid = layout.grid if isinstance(layout, SparseWindowPlan) else layout
                plan = layout if isinstance(layout, SparseWindowPlan) and len(Z) == len(layout.coords) else None

                def field(oracle):
                    X = extended_field(Z, t, grid, oracle, GivenConditions(conditions), plan=plan)
                    return X.features if plan is not None else X.data
            assert _outcome(lambda: field(provider)) == _outcome(lambda: field(reference))
        if kind == "own" and kind_of_layout == "plan":  # the plan's own boxes cut no restriction
            assert not provider._slat_boxes

    def test_plan_path_keeps_one_target_row_per_coordinate(self):
        # the agreed field is one row per coordinate, and so is the one
        # target kept per plan: the sparse target itself, on its own rows
        Z = init_sparse_noise(np.argwhere(np.ones(DIMS.grid_shape, dtype=bool)), DIMS, 0)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        plan, conditions = SparseWindowPlan(grid, Z.coords), OracleConditioner().window_conditions(grid)
        provider = GlobalOracleProvider(slat_target=Z)
        reply = provider.evaluate_windows(Z, plan, conditions, 0.5)
        assert isinstance(reply, AgreedField) and reply.values.shape == Z.features.shape
        (target,) = provider._plan_targets.values()
        assert target is Z.features

    def test_without_sparse_target_falls_back(self):
        Z = init_sparse_noise(np.argwhere(np.ones(DIMS.grid_shape, dtype=bool)), DIMS, 0)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        plan, conditions = SparseWindowPlan(grid, Z.coords), OracleConditioner().window_conditions(grid)
        with pytest.raises(ProviderError, match="no sparse target") as info:
            GlobalOracleProvider().evaluate_windows(Z, plan, conditions, 0.5)
        assert info.value.item == 0


class TestConditionCount:
    """A condition count other than the batch's item count is a
    ProviderError, on every call, whatever the provider."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("provider", ["default", "oracle"])
    def test_short_and_long_condition_lists_rejected(self, provider, sparse):
        grid = make_patch_grid(DIMS, 2, DIMS.M if sparse else DIMS.N)
        if sparse:
            Z = init_sparse_noise(np.argwhere(np.ones(DIMS.grid_shape, dtype=bool))[::3], DIMS, 0)
            batch = SparseWindowPlan(grid, Z.coords).gather(Z)
            target = GlobalOracleProvider(slat_target=Z)
        else:
            Z = random_dense(DIMS, 0)
            batch = grid.gather(Z)
            target = GlobalOracleProvider(ss_target=Z)
        chosen = ZeroFieldProvider() if provider == "default" else target
        conditions = list(OracleConditioner().window_conditions(grid))
        n = len(batch)
        for given in ([], conditions[:1], conditions[:-1], conditions + conditions[:1]):
            for _ in range(3):
                with pytest.raises(ProviderError, match=f"{len(given)} conditions for a batch of {n} items") as info:
                    chosen.evaluate_batch(batch, given, 0.5)
                assert info.value.item is None
        assert chosen.evaluate_batch(batch, conditions, 0.5).shape == batch.values.shape


class TestMixedField:
    def setup_method(self):
        self.grid = make_patch_grid(DIMS, 2, DIMS.N)
        self.partition = dilated_partition(DIMS, DIMS.N, seed=0)
        self.target = random_dense(DIMS, 20)
        self.provider = GlobalOracleProvider(ss_target=self.target)
        self.Z = random_dense(DIMS, 21)

    def test_consistent_oracles_make_mixture_exact(self):
        # patch-wise and dilated routes agree for a global oracle, so the
        # mixture equals the global field at any t
        for t in (0.3, 0.5, 0.9):
            out = mixed_field(
                self.Z, t, self.grid, self.provider, OracleConditioner(), self.partition
            )
            expected = (self.Z.data - self.target.data) / np.float32(t)
            assert np.abs(out.data - expected).max() < 2e-5

    def test_t_one_is_pure_dilated(self):
        out = mixed_field(
            self.Z, 1.0, self.grid, self.provider, OracleConditioner(), self.partition
        )
        dl = dilated_field(self.Z, 1.0, self.partition, self.provider, OracleConditioner())
        assert np.array_equal(out.data, dl.data)

    def test_gamma_zero_limit_is_pure_patchwise(self):
        # alpha odd makes gamma(0) = 0; probe just above the singularity
        t = 1e-9
        pw = extended_field(self.Z, t, self.grid, self.provider, OracleConditioner())
        out = mixed_field(
            self.Z, t, self.grid, self.provider, OracleConditioner(), self.partition
        )
        assert np.allclose(out.data, pw.data, rtol=1e-5)


class TestEulerIntegrate:
    def test_oracle_reaches_target_any_schedule(self):
        target = random_dense(DIMS, 30)
        start = sample_gaussian(DIMS, 31)
        field = OracleField(DenseLatent(DIMS, target.data))
        for k in (2, 5, 50):
            final = euler_integrate(
                start, Schedule.linear(1.0, k), lambda Z, t: field.evaluate(Z, None, t)
            )
            scale = max(1.0, float(np.abs(target.data).max()))
            assert np.abs(final.data - target.data).max() / scale < 1e-5

    def test_zero_field_is_identity(self):
        start = sample_gaussian(DIMS, 32)
        final = euler_integrate(
            start,
            Schedule.linear(0.8, 10),
            lambda Z, t: Z.with_data(np.zeros_like(Z.data)),
        )
        assert np.array_equal(final.data, start.data)

    def test_step_count_invariance_for_linear_trajectory(self):
        target = random_dense(DIMS, 33)
        start = sample_gaussian(DIMS, 34)
        field = OracleField(target)
        fn = lambda Z, t: field.evaluate(Z, None, t)
        f2 = euler_integrate(start, Schedule.linear(1.0, 2), fn)
        f50 = euler_integrate(start, Schedule.linear(1.0, 50), fn)
        assert np.abs(f2.data - f50.data).max() < 1e-5

    def test_sparse_integration(self):
        coords = np.array([[0, 0, 0], [3, 7, 2], [15, 15, 7]])
        target = init_sparse_noise(coords, DIMS, seed=1)
        start = init_sparse_noise(coords, DIMS, seed=2)
        field = OracleField(target)
        final = euler_integrate(
            start, Schedule.linear(1.0, 25), lambda Z, t: field.evaluate(Z, None, t)
        )
        assert np.array_equal(final.coords, target.coords)
        assert np.abs(final.features - target.features).max() < 1e-5

    def test_divergence_reports_step(self):
        # start near the float32 floor so the first update overflows
        start = DenseLatent.full(DIMS, -3e38)

        def pushing(Z, t):
            return Z.with_data(np.full_like(Z.data, 3.4e38))

        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            euler_integrate(start, Schedule.linear(1.0, 5), pushing)
        assert err.value.step_index == 0

    def test_hook_applied(self):
        start = sample_gaussian(DIMS, 36)
        calls = []

        def hook(v, Z, t):
            calls.append(t)
            return v.with_data(np.zeros_like(v.data))

        final = euler_integrate(
            start,
            Schedule.linear(1.0, 5),
            lambda Z, t: Z.with_data(np.ones_like(Z.data)),
            hook,
        )
        assert len(calls) == 4
        assert np.array_equal(final.data, start.data)
