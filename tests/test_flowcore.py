import numpy as np
import pytest

from tiledflow import flowcore
from tiledflow.errors import ConfigError, DivergenceError, ProviderError, SingularityError
from tiledflow.flowcore import (
    Conditioner,
    GlobalOracleProvider,
    OracleConditioner,
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
    DenseLatent,
    Dims,
    Schedule,
    SparseLatent,
    init_sparse_noise,
    sample_gaussian,
    stack_patches,
)
from tiledflow.patchwork import SparseWindowPlan, dilated_partition, make_patch_grid

from reference_copies import OracleField, ZeroFieldProvider


DIMS = Dims(2, 2, 4, 8, C=1, l=3)


def random_dense(dims, seed):
    rng = np.random.default_rng(seed)
    return DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))


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
        assert [c.data for c in stacked] == [
            conditioner.dilated_condition(partition, n).data for n in range(len(partition))
        ]
        assert stacked == Conditioner.dilated_conditions(conditioner, partition)

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

    def test_worker_count_invariance(self):
        target = random_dense(DIMS, 16)
        Z = random_dense(DIMS, 17)
        grid = make_patch_grid(DIMS, 4, DIMS.N)
        provider = GlobalOracleProvider(ss_target=target)
        a = extended_field(Z, 0.7, grid, provider, OracleConditioner(), workers=1)
        b = extended_field(Z, 0.7, grid, provider, OracleConditioner(), workers=4)
        assert np.array_equal(a.data, b.data)

    def test_provider_failure_carries_patch_index(self):
        class Broken(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                raise RuntimeError("boom")

        Z = random_dense(DIMS, 18)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with pytest.raises(ProviderError, match=r"patch \(0, 0\)"):
            extended_field(Z, 0.5, grid, Broken(), OracleConditioner())

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_failure_on_one_window_names_it(self, workers):
        class FailsAtOneWindow(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if read_oracle_conditions([condition])["box"][0, :2].tolist() == [2, 2]:  # window (1, 1)
                    raise RuntimeError("boom")
                return patch.with_data(np.zeros_like(patch.data))

        Z = random_dense(DIMS, 18)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with pytest.raises(ProviderError, match=r"patch \(1, 1\): boom"):
            extended_field(Z, 0.5, grid, FailsAtOneWindow(), OracleConditioner(), workers=workers)

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
        assert FailsOnSecond().evaluate_batch(batch[:0], [], 0.5).shape == (0,) + patch.data.shape

    @pytest.mark.parametrize(
        "workers,concurrent_safe,sizes",
        [(1, True, [9]), (2, True, [4, 5]), (4, True, [2, 2, 2, 3]), (8, False, [9])],
    )
    def test_windows_go_out_in_contiguous_batches(self, workers, concurrent_safe, sizes):
        import threading

        class Recording(VectorFieldProvider):
            def __init__(self):
                self.concurrent_safe = concurrent_safe
                self.batches = []
                self.lock = threading.Lock()

            def evaluate_batch(self, batch, conditions, t):
                with self.lock:
                    boxes = read_oracle_conditions(conditions)["box"].tolist()
                    self.batches.append([tuple(box[:2]) for box in boxes])
                return np.zeros_like(batch.data)

        grid = make_patch_grid(DIMS, 2, DIMS.N)
        provider = Recording()
        extended_field(random_dense(DIMS, 19), 0.5, grid, provider, OracleConditioner(), workers)
        batches = sorted(provider.batches)
        assert [len(b) for b in batches] == sizes
        assert sum(batches, []) == [(w.x0, w.y0) for w in grid.windows()]

    def test_wrong_vector_count_rejected(self):
        class Short(VectorFieldProvider):
            def evaluate_batch(self, batch, conditions, t):
                return batch.data[1:]

        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with pytest.raises(ProviderError, match="returned 8 vectors"):
            extended_field(random_dense(DIMS, 20), 0.5, grid, Short(), OracleConditioner())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_on_one_dilated_sample_names_it(self, workers):
        partition = dilated_partition(DIMS, DIMS.N, seed=0)
        bad = OracleConditioner().dilated_condition(partition, 2).data

        class FailsAtOneSample(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if condition.data == bad:
                    raise RuntimeError("boom")
                return patch

        with pytest.raises(ProviderError, match="dilated sample 2: boom"):
            dilated_field(
                random_dense(DIMS, 21), 0.5, partition, FailsAtOneSample(), OracleConditioner(), workers
            )

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
        plan = SparseWindowPlan(grid, Z.coords[1:])
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
            out = extended_field(Z, 0.5, grid, provider, OracleConditioner())
            expected = (Z.features - target.features) / np.float32(0.5)
            assert np.abs(out.features - expected).max() < 1e-6
        assert len(provider._slat_boxes) == cached

    def test_oracle_restriction_cache_shared_by_threads(self):
        import sys

        rng = np.random.default_rng(23)
        coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.3)
        target = init_sparse_noise(coords, DIMS, seed=7)
        Z = init_sparse_noise(coords, DIMS, seed=8)
        grid = make_patch_grid(DIMS, 4, DIMS.M)
        serial = GlobalOracleProvider(slat_target=target)
        expected = extended_field(Z, 0.5, grid, serial, OracleConditioner())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                provider = GlobalOracleProvider(slat_target=target)
                out = extended_field(Z, 0.5, grid, provider, OracleConditioner(), workers=8)
                assert out.features.tobytes() == expected.features.tobytes()
                assert len(provider._slat_boxes) == grid.count
        finally:
            sys.setswitchinterval(interval)

    def test_non_concurrent_provider_is_serialized(self):
        import threading

        class Fragile(VectorFieldProvider):
            concurrent_safe = False

            def __init__(self):
                self.lock = threading.Lock()
                self.in_flight = 0
                self.max_in_flight = 0

            def evaluate(self, patch, condition, t):
                with self.lock:
                    self.in_flight += 1
                    self.max_in_flight = max(self.max_in_flight, self.in_flight)
                import time

                time.sleep(0.002)
                with self.lock:
                    self.in_flight -= 1
                return patch.with_data(np.zeros_like(patch.data))

        Z = random_dense(DIMS, 19)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        provider = Fragile()
        extended_field(Z, 0.5, grid, provider, OracleConditioner(), workers=8)
        assert provider.max_in_flight == 1


    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_builtin_oracle_answers_each_chunk_with_one_batch_call(self, monkeypatch, workers):
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
        Z, cond = random_dense(DIMS, 26), OracleConditioner()
        dense_grid, sparse_grid = make_patch_grid(DIMS, 2, DIMS.N), make_patch_grid(DIMS, 2, DIMS.M)
        partition = dilated_partition(DIMS, DIMS.N)
        fields = [
            lambda: extended_field(Z, 0.5, dense_grid, provider, cond, workers),
            lambda: extended_field(slat_target, 0.5, sparse_grid, provider, cond, workers),
            lambda: dilated_field(Z, 0.5, partition, provider, cond, workers),
        ]
        for field_call, items in zip(fields, (9, 9, 4)):
            calls.update(evaluate=0, evaluate_batch=0)
            field_call()
            assert calls == {"evaluate": 0, "evaluate_batch": min(workers, items)}


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
