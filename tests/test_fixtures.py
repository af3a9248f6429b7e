import numpy as np
import pytest

from tiledflow.fixtures import build_cavity_fixture, build_demo_scene, cavity_recall
from tiledflow.lattice import Dims
from tiledflow.structedit import ToyCodec


SMALL = Dims(2, 2, 4, 8, C=1, l=4)


class TestDemoScene:
    def test_target_is_block_constant(self):
        scene = build_demo_scene(SMALL)
        codec = ToyCodec(SMALL)
        back = codec.decode_occupancy(codec.encode(scene.occ_target))
        assert np.array_equal(back.occupied, scene.occ_target.occupied)

    def test_prior_consistency(self):
        scene = build_demo_scene(SMALL)
        assert scene.prior.image.min() >= 0 and scene.prior.image.max() <= 1
        assert scene.prior.valid.all()  # every column has ground
        assert scene.prior.shape == (16, 16)

    def test_slat_target_covers_occupancy(self):
        scene = build_demo_scene(SMALL)
        assert np.array_equal(scene.slat_target.coords, scene.occ_target.coords())

    def test_deterministic(self):
        a = build_demo_scene(SMALL)
        b = build_demo_scene(SMALL)
        assert np.array_equal(a.ss_target.data, b.ss_target.data)
        assert np.array_equal(a.prior.point_map, b.prior.point_map)


class TestCavityFixture:
    def test_hidden_region_is_occluded_target(self):
        f = build_cavity_fixture(SMALL)
        assert f.hidden.any()
        # hidden voxels are target-occupied but absent from the prior shell
        assert not (f.hidden & f.occ_prior.occupied).any()
        assert (f.hidden <= f.occ_target.occupied).all()
        # the prior shell is the top surface: one voxel per column
        assert f.occ_prior.occupied.sum(axis=2).max() == 1

    def test_zero_rounds_recall_zero(self):
        f = build_cavity_fixture(SMALL)
        assert cavity_recall(f, 0.6, 0.8, n_iter=0, seed=0, d=2, schedule_steps=6) == 0.0

    def test_under_noising_beats_over_noising(self):
        f = build_cavity_fixture()
        u = cavity_recall(f, 0.6, 0.8, n_iter=1, seed=1)
        o = cavity_recall(f, 0.8, 0.6, n_iter=1, seed=1)
        assert u > o

    @pytest.mark.parametrize(
        "t_noise, t_start, n_iter, alpha, recall",
        [
            (0.6, 0.8, 1, 5, 0.9434523809523809),
            (0.8, 0.6, 1, 5, 0.796875),
            (0.6, 0.8, 2, 5, 0.9970238095238095),
            (0.6, 0.8, 2, None, 0.9925595238095238),
        ],
    )
    def test_recall_pinned(self, t_noise, t_start, n_iter, alpha, recall):
        # exact values: a change in how rounds draw from the seeded
        # stream (noise, then one pillar shuffle per step) moves them
        f = build_cavity_fixture()
        assert cavity_recall(f, t_noise, t_start, n_iter, seed=0, alpha=alpha) == recall
