import tracemalloc

import numpy as np
import pytest

from tiledflow.flowcore import GlobalOracleProvider, OracleConditioner
from tiledflow.lattice import DTYPE, DenseLatent, Dims, OccupancyGrid, Schedule
from tiledflow.patchwork import make_patch_grid
from tiledflow.structedit import ToyCodec, iterative_sdedit, sdedit_round, under_noise, upsample_blocks

import reference_copies as ref
from reference_copies import ZeroFieldProvider


DIMS = Dims(2, 2, 4, 8, C=1, l=4)
CODEC = ToyCodec(DIMS)


def block_grid(dims, seed=0, fill=0.4):
    """Random block-constant occupancy (exact under the codec)."""
    rng = np.random.default_rng(seed)
    coarse = rng.random((dims.a * dims.N, dims.b * dims.N, dims.N)) < fill
    return OccupancyGrid(dims, ref.upsample_blocks(coarse, dims.ratio))


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



# Ratios 1, 2 and 4, and 64 (r^3 = 262,144 cells per block, past uint16).
CODEC_DIMS = [
    Dims(a, b, N, M, C=C)
    for a, b, N, M in ((2, 1, 4, 4), (2, 2, 4, 8), (1, 2, 2, 8), (1, 1, 1, 64))
    for C in (1, 3)
]
TINY = np.nextafter(DTYPE(0), DTYPE(1))


def _grids(dims):
    rng = np.random.default_rng(dims.ratio)
    yield np.zeros(dims.grid_shape, dtype=bool)
    yield np.ones(dims.grid_shape, dtype=bool)
    for fill in (0.1, 0.5, 0.9):
        yield rng.random(dims.grid_shape) < fill


def _latent_data(dims):
    rng = np.random.default_rng(dims.ratio)
    for value in (0.0, -0.0, TINY):
        yield np.full(dims.dense_shape, value, dtype=DTYPE)
    yield rng.choice(np.array([0.0, -0.0, TINY, -TINY], dtype=DTYPE), size=dims.dense_shape)
    yield rng.standard_normal(dims.dense_shape, dtype=DTYPE)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dims", CODEC_DIMS, ids=lambda d: f"r{d.ratio}-C{d.C}")
class TestCodecBitEquality:
    def test_encode_matches_float64_block_mean(self, dims):
        for occupied in _grids(dims):
            got = ToyCodec(dims).encode(OccupancyGrid(dims, occupied)).data
            assert got.tobytes() == ref.encode_block_mean(dims, occupied).tobytes()

    def test_decode_matches_threshold_of_upsampled_logits(self, dims):
        for data in _latent_data(dims):
            got = ToyCodec(dims).decode_occupancy(DenseLatent(dims, data)).occupied
            expected = ref.decode_occupied(dims, data)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_upsample_matches_repeats(r):
    values = np.random.default_rng(r).standard_normal((3, 2, 5), dtype=DTYPE)
    for coarse in (values, values > 0):
        got, expected = upsample_blocks(coarse, r), ref.upsample_blocks(coarse, r)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestCodecMemory:
    DIMS = Dims(4, 4, 8, 32)

    def test_encode_peaks_below_the_grid(self):
        grid = OccupancyGrid(self.DIMS, np.random.default_rng(0).random(self.DIMS.grid_shape) < 0.3)
        assert _peak_bytes(lambda: ToyCodec(self.DIMS).encode(grid)) < grid.occupied.nbytes

    def test_decode_peaks_near_one_byte_per_voxel(self):
        Z = DenseLatent(self.DIMS, np.random.default_rng(0).standard_normal(self.DIMS.dense_shape))
        nbytes = np.prod(self.DIMS.grid_shape)
        assert _peak_bytes(lambda: ToyCodec(self.DIMS).decode_occupancy(Z)) < 1.5 * nbytes


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
