import numpy as np
import pytest

from tiledflow.flowcore import GlobalOracleProvider, OracleConditioner
from tiledflow.lattice import DenseLatent, Dims, OccupancyGrid, Schedule
from tiledflow.patchwork import make_patch_grid
from tiledflow.structedit import ToyCodec, iterative_sdedit, sdedit_round, under_noise

from reference_copies import ZeroFieldProvider


DIMS = Dims(2, 2, 4, 8, C=1, l=4)
CODEC = ToyCodec(DIMS)


def block_grid(dims, seed=0, fill=0.4):
    """Random block-constant occupancy (exact under the codec)."""
    rng = np.random.default_rng(seed)
    coarse = rng.random((dims.a * dims.N, dims.b * dims.N, dims.N)) < fill
    fine = coarse
    for axis in range(3):
        fine = np.repeat(fine, dims.ratio, axis=axis)
    return OccupancyGrid(dims, fine)


class TestToyCodec:
    def test_all_occupied(self):
        grid = OccupancyGrid(DIMS, np.ones(DIMS.grid_shape, dtype=bool))
        assert np.all(CODEC.encode(grid).data == 1.0)

    def test_all_empty(self):
        grid = OccupancyGrid.empty(DIMS)
        assert np.all(CODEC.encode(grid).data == -1.0)

    def test_partial_block_mean(self):
        dims = Dims(1, 1, 2, 4, C=1)  # ratio 2: blocks of 8 cells
        codec = ToyCodec(dims)
        occ = np.zeros(dims.grid_shape, dtype=bool)
        occ[0, 0, 0] = occ[0, 1, 0] = occ[1, 0, 0] = True  # 3 of 8 in block (0,0,0)
        latent = codec.encode(OccupancyGrid(dims, occ))
        assert latent.data[0, 0, 0, 0] == pytest.approx(2 * (3 / 8) - 1)

    def test_round_trip_on_block_constant(self):
        for seed in range(5):
            grid = block_grid(DIMS, seed)
            back = CODEC.decode_occupancy(CODEC.encode(grid))
            assert np.array_equal(back.occupied, grid.occupied)

    def test_zero_latent_decodes_empty(self):
        z = DenseLatent.zeros(DIMS)
        assert CODEC.decode_occupancy(z).count() == 0  # 0 is not > 0

    def test_positive_constant_decodes_full(self):
        z = DenseLatent.full(DIMS, 0.5)
        assert CODEC.decode_occupancy(z).count() == np.prod(DIMS.grid_shape)

    def test_half_block_tie_decodes_empty(self):
        dims = Dims(1, 1, 2, 4, C=1)
        codec = ToyCodec(dims)
        occ = np.zeros(dims.grid_shape, dtype=bool)
        occ[0, 0, 0] = occ[0, 1, 0] = occ[1, 0, 0] = occ[1, 1, 0] = True  # 4 of 8
        back = codec.decode_occupancy(codec.encode(OccupancyGrid(dims, occ)))
        assert back.occupied[:2, :2, :2].sum() == 0


class TestUnderNoise:
    def test_zero_noise_keeps_guide(self):
        guide = CODEC.encode(block_grid(DIMS, 1))
        out = under_noise(guide, 0.0, seed=0)
        assert np.array_equal(out.data, guide.data)

    def test_full_noise_is_pure_gaussian(self):
        guide = CODEC.encode(block_grid(DIMS, 2))
        out = under_noise(guide, 1.0, seed=3)
        eps = np.random.default_rng(3).standard_normal(DIMS.dense_shape, dtype=np.float32)
        assert np.allclose(out.data, eps, atol=1e-6)

    def test_under_noised_level(self):
        # noised at 0.6 while the schedule will start at 0.8
        guide = CODEC.encode(block_grid(DIMS, 3))
        out = under_noise(guide, 0.6, seed=4)
        eps = np.random.default_rng(4).standard_normal(DIMS.dense_shape, dtype=np.float32)
        expected = 0.4 * guide.data.astype(np.float64) + 0.6 * eps
        assert np.abs(out.data - expected).max() < 1e-6

    def test_matches_classic_interpolation_when_equal(self):
        from tiledflow.lattice import lerp_latent

        guide = CODEC.encode(block_grid(DIMS, 5))
        out = under_noise(guide, 0.7, seed=6)
        eps = DenseLatent(
            DIMS, np.random.default_rng(6).standard_normal(DIMS.dense_shape, dtype=np.float32)
        )
        assert np.allclose(out.data, lerp_latent(guide, eps, 0.7).data, atol=1e-6)

    @pytest.mark.parametrize("t_noise", [-0.1, 1.5, float("nan")])
    def test_rejects_level_outside_unit_interval(self, t_noise):
        guide = CODEC.encode(block_grid(DIMS, 1))
        with pytest.raises(ValueError):
            under_noise(guide, t_noise, seed=0)


def _round_args(provider, t_start=0.8, t_noise=0.6):
    return dict(
        t_noise=t_noise,
        schedule=Schedule.linear(t_start, 25),
        provider=provider,
        conditioner=OracleConditioner(),
        grid=make_patch_grid(DIMS, 2, DIMS.N),
        codec=CODEC,
    )


class TestSdeditRound:
    def test_oracle_round_reaches_target(self):
        target = block_grid(DIMS, 7)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        start = block_grid(DIMS, 8)
        out = sdedit_round(start, rng=np.random.default_rng(0), **_round_args(provider))
        assert np.array_equal(out.occupied, target.occupied)

    def test_zero_field_no_noise_is_identity(self):
        start = block_grid(DIMS, 9)
        out = sdedit_round(
            start, rng=np.random.default_rng(0), **_round_args(ZeroFieldProvider(), t_noise=0.0)
        )
        assert np.array_equal(out.occupied, start.occupied)

    def test_cavity_filled_after_round(self):
        # hidden cavity: the target fills blocks the start grid lacks
        start_coarse = np.zeros((DIMS.a * DIMS.N, DIMS.b * DIMS.N, DIMS.N), dtype=bool)
        start_coarse[:, :, 0] = True
        target_coarse = start_coarse.copy()
        target_coarse[2:5, 2:5, 1:3] = True  # the hidden part
        def up(c):
            f = c
            for ax in range(3):
                f = np.repeat(f, DIMS.ratio, axis=ax)
            return OccupancyGrid(DIMS, f)
        start, target = up(start_coarse), up(target_coarse)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        out = sdedit_round(start, rng=np.random.default_rng(1), **_round_args(provider))
        assert np.array_equal(out.occupied, target.occupied)

    def test_over_noising_accepted(self):
        # noise level above the schedule start: the round runs, and the
        # oracle still lands on its target
        target = block_grid(DIMS, 10)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        args = _round_args(provider, t_start=0.6, t_noise=0.8)
        out = sdedit_round(block_grid(DIMS, 0), rng=np.random.default_rng(0), **args)
        assert np.array_equal(out.occupied, target.occupied)


class TestIterativeSdedit:
    def test_zero_iterations_returns_input_coords(self):
        start = block_grid(DIMS, 11)
        args = _round_args(ZeroFieldProvider())
        coords = iterative_sdedit(start, n_iter=0, seed=0, **args)
        assert np.array_equal(coords, start.coords())

    def test_oracle_stabilizes_after_first_round(self):
        target = block_grid(DIMS, 12)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        outputs = []
        for n_iter in (1, 2, 3):
            args = _round_args(provider)
            coords = iterative_sdedit(block_grid(DIMS, 13), n_iter=n_iter, seed=5, **args)
            outputs.append(coords)
        for coords in outputs:
            assert np.array_equal(coords, target.coords())

    def test_round_callback_sees_counts(self):
        target = block_grid(DIMS, 14)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        seen = []
        args = _round_args(provider)
        iterative_sdedit(
            block_grid(DIMS, 15), n_iter=2, seed=6, on_round=lambda n, occ: seen.append((n, occ.count())), **args
        )
        assert [n for n, _ in seen] == [0, 1]
        assert seen[0][1] == target.count()

    def test_deterministic_across_runs(self):
        target = block_grid(DIMS, 16)
        provider = GlobalOracleProvider(ss_target=CODEC.encode(target))
        args = _round_args(provider)
        a = iterative_sdedit(block_grid(DIMS, 17), n_iter=2, seed=7, dilated_alpha=5, **args)
        b = iterative_sdedit(block_grid(DIMS, 17), n_iter=2, seed=7, dilated_alpha=5, **args)
        assert np.array_equal(a, b)
