import json
from dataclasses import replace

import numpy as np
import pytest

from tiledflow import tensorio
from tiledflow.decode import decode_scene_sdf
from tiledflow.errors import ConfigError
from tiledflow.fixtures import build_demo_scene, demo_bundle, run_oracle_demo
from tiledflow.lattice import Dims
from tiledflow.optim import AdamParams
from tiledflow.pipeline import (
    PipelineConfig,
    ProviderBundle,
    config_from_dict,
    generate_slat,
    generate_sparse_structure,
    load_config,
    read_slat_table,
    run_pipeline,
    write_slat_table,
)
from tiledflow.patchwork import SparseWindowPlan, make_patch_grid
from tiledflow.priors import NormalizationBox, voxelize


SMALL = Dims(2, 2, 4, 8, C=1, l=4)


def small_config(**overrides):
    base = dict(
        dims=SMALL,
        d=2,
        schedule_steps=8,
        n_iter=1,
        ss_adam=AdamParams(steps=0),
        slat_adam=AdamParams(steps=0),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfig:
    def test_defaults_match_documented_values(self):
        c = PipelineConfig()
        assert (c.dims.a, c.dims.b, c.dims.N, c.dims.M) == (2, 2, 8, 32)
        assert c.d == 4
        assert (c.t_noise, c.t_start) == (0.6, 0.8)
        assert c.n_iter == 2
        assert c.alpha == 5
        assert c.schedule_steps == 25
        assert c.ss_adam.steps == 5 and c.ss_adam.lr == 1e-2
        assert c.dilated_enabled

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"t_stort": 0.8})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in 'dims'"):
            config_from_dict({"dims": {"a": 2, "zz": 3}})

    def test_d_must_divide_sides(self):
        with pytest.raises(ConfigError):
            PipelineConfig(dims=SMALL, d=3)

    def test_under_noise_defaults_loadable_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"t_noise": 0.6, "t_start": 0.8, "out_dir": "x"}))
        c = load_config(path)
        assert c.t_noise == 0.6 and c.t_start == 0.8

    def test_nested_sections_parse(self):
        c = config_from_dict(
            {
                "dims": {"a": 2, "b": 2, "N": 4, "M": 8},
                "d": 2,
                "ss_adam": {"steps": 3, "lr": 0.005},
                "loss_weights": {"l2": 2.0, "ssim": 0.0},
            }
        )
        assert c.dims.N == 4
        assert c.ss_adam.steps == 3
        assert c.loss_weights.l2 == 2.0

    def test_provider_spelling_checked(self):
        with pytest.raises(ConfigError):
            PipelineConfig(provider="oracle")

    def test_oracle_requires_window_conditioner(self):
        with pytest.raises(ConfigError):
            PipelineConfig(conditioner="image")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_dims_surface_as_config_error(self):
        with pytest.raises(ConfigError, match="invalid 'dims'"):
            config_from_dict({"dims": {"a": 2, "b": 2, "N": 8, "M": 12}})

    def test_under_noising_allowed(self):
        for t_noise in (0.0, 0.6, 0.8):
            c = config_from_dict({"t_start": 0.8, "t_noise": t_noise})
            assert c.t_noise <= c.t_start

    def test_rejects_noise_above_start(self):
        with pytest.raises(ConfigError, match="t_noise <= t_start"):
            PipelineConfig(t_start=0.6, t_noise=0.8)
        with pytest.raises(ConfigError, match="t_noise <= t_start"):
            config_from_dict({"t_start": 0.6, "t_noise": 0.8})

    def test_rejects_negative_iters(self):
        with pytest.raises(ConfigError, match="n_iter"):
            PipelineConfig(n_iter=-1)
        with pytest.raises(ConfigError, match="n_iter"):
            config_from_dict({"n_iter": -1})

    def test_adam_state_persist_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"adam_state_persist": True})


class TestSparseStructureStage:
    def test_oracle_recovers_target_exactly(self):
        scene = build_demo_scene(SMALL)
        coords = generate_sparse_structure(scene.prior, small_config(), demo_bundle(scene))
        assert np.array_equal(coords, scene.occ_target.coords())

    def test_zero_rounds_returns_voxelized_prior(self):
        scene = build_demo_scene(SMALL)
        config = small_config(n_iter=0)
        coords = generate_sparse_structure(scene.prior, config, demo_bundle(scene))
        box = NormalizationBox.from_points(scene.prior.valid_points())
        expected = voxelize(scene.prior.valid_points(), box, SMALL).coords()
        assert np.array_equal(coords, expected)

    def test_optimization_keeps_occupancy_exact(self):
        scene = build_demo_scene(SMALL)
        config = small_config(ss_adam=AdamParams(steps=3))
        coords = generate_sparse_structure(scene.prior, config, demo_bundle(scene))
        assert np.array_equal(coords, scene.occ_target.coords())

    def test_optimize_every_round_flag(self, monkeypatch):
        calls = []
        import tiledflow.pipeline as pl

        real = pl.optimize_vector

        def spy(v, objective, params):
            calls.append(1)
            return real(v, objective, params)

        monkeypatch.setattr(pl, "optimize_vector", spy)
        scene = build_demo_scene(SMALL)
        config = small_config(n_iter=2, ss_adam=AdamParams(steps=1))
        generate_sparse_structure(scene.prior, config, demo_bundle(scene))
        per_round = config.schedule_steps - 1
        assert len(calls) == 2 * per_round

        calls.clear()
        config = small_config(
            n_iter=2, ss_adam=AdamParams(steps=1), optimize_every_round=False
        )
        generate_sparse_structure(scene.prior, config, demo_bundle(scene))
        assert len(calls) == per_round  # only the final round optimizes


class TestSlatStage:
    def test_oracle_recovers_features(self):
        scene = build_demo_scene(SMALL)
        coords = scene.occ_target.coords()
        slat = generate_slat(coords, scene.prior, small_config(), demo_bundle(scene))
        assert np.array_equal(slat.coords, scene.slat_target.coords)
        err = np.abs(slat.features - scene.slat_target.features).max()
        assert err <= 1e-4

    def test_coordinates_invariant(self):
        scene = build_demo_scene(SMALL)
        coords = scene.occ_target.coords()
        config = small_config(slat_adam=AdamParams(steps=2))
        slat = generate_slat(coords, scene.prior, config, demo_bundle(scene))
        assert np.array_equal(slat.coords, coords)

    def test_plan_for_other_grid_or_coordinates_rejected(self):
        scene = build_demo_scene(SMALL)
        coords = scene.occ_target.coords()
        config = small_config()
        for grid, planned in (
            (make_patch_grid(SMALL, 1, SMALL.M), coords),
            (make_patch_grid(SMALL, config.d, SMALL.M), coords[1:]),
        ):
            plan = SparseWindowPlan(grid, planned)
            with pytest.raises(ConfigError):
                generate_slat(coords, scene.prior, config, demo_bundle(scene), plan=plan)
            with pytest.raises(ConfigError):
                decode_scene_sdf(scene.slat_target, make_patch_grid(SMALL, config.d, SMALL.M), plan)

    def test_empty_coords_rejected(self):
        scene = build_demo_scene(SMALL)
        with pytest.raises(ConfigError):
            generate_slat(np.zeros((0, 3)), scene.prior, small_config(), demo_bundle(scene))


class TestEndToEnd:
    def test_exports_and_report(self, tmp_path):
        report, scene = run_oracle_demo(str(tmp_path / "out"), exact=True, dims=SMALL)
        for key in ("scene_ply", "occupancy_xlt", "sdf_xlt", "slat_xlt"):
            assert key in report.asset_paths
        occ = tensorio.read_tensor(report.asset_paths["occupancy_xlt"]).astype(bool)
        assert np.array_equal(occ, scene.occ_target.occupied)
        names = [s["name"] for s in report.stages]
        assert names == ["sparse_structure", "structured_latent", "decode_export"]
        assert (tmp_path / "out" / "report.json").exists()
        assert len(report.round_occupancy) == 2

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        blobs = {}
        for name, workers in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / name
            run_oracle_demo(str(out), seed=3, workers=workers, dims=SMALL)
            blobs[name] = [(p.name, p.read_bytes()) for p in sorted(out.glob("*.xlt"))] + [
                ("scene.ply", (out / "scene.ply").read_bytes())
            ]
        assert blobs["a"] == blobs["b"]
        assert blobs["a"] == blobs["c"]

    def test_degenerate_single_patch_config(self, tmp_path):
        dims = Dims(1, 1, 4, 8, C=1, l=4)
        scene = build_demo_scene(dims)
        config = PipelineConfig(
            dims=dims,
            d=1,
            schedule_steps=8,
            n_iter=1,
            ss_adam=AdamParams(steps=0),
            slat_adam=AdamParams(steps=0),
            out_dir=str(tmp_path / "degenerate"),
        )
        report = run_pipeline(scene.prior, config, demo_bundle(scene))
        occ = tensorio.read_tensor(report.asset_paths["occupancy_xlt"]).astype(bool)
        assert np.array_equal(occ, scene.occ_target.occupied)

    def test_occluded_scene_completion_iou(self, tmp_path):
        # the prior sees only the top surface; the run must reproduce the
        # full target occupancy anyway
        scene = build_demo_scene(SMALL)
        box = NormalizationBox.from_points(scene.prior.valid_points())
        prior_occ = voxelize(scene.prior.valid_points(), box, SMALL)
        assert prior_occ.count() < scene.occ_target.count()  # truly occluded
        config = small_config(out_dir=str(tmp_path / "occ"))
        report = run_pipeline(scene.prior, config, demo_bundle(scene))
        occ = tensorio.read_tensor(report.asset_paths["occupancy_xlt"]).astype(bool)
        target = scene.occ_target.occupied
        iou = (occ & target).sum() / (occ | target).sum()
        assert iou == 1.0

    def test_prior_without_valid_points_is_config_error(self, tmp_path):
        scene = build_demo_scene(SMALL)
        prior = replace(scene.prior, valid=np.zeros_like(scene.prior.valid))
        config = small_config(out_dir=str(tmp_path / "empty"))
        with pytest.raises(ConfigError, match="no valid points"):
            run_pipeline(prior, config, demo_bundle(scene))
        with pytest.raises(ConfigError, match="no valid points"):
            generate_slat(scene.occ_target.coords(), prior, config, demo_bundle(scene))

    def test_trace_files_written_when_enabled(self, tmp_path):
        scene = build_demo_scene(SMALL)
        config = small_config(
            out_dir=str(tmp_path / "traced"),
            ss_adam=AdamParams(steps=2),
            slat_adam=AdamParams(steps=2),
            trace_losses=True,
        )
        run_pipeline(scene.prior, config, demo_bundle(scene))
        ss_trace = (tmp_path / "traced" / "ss_loss_trace.csv").read_text().splitlines()
        assert ss_trace[0] == "step,t,loss"
        assert len(ss_trace) > 1


class TestSlatTableIO:
    def test_round_trip(self, tmp_path):
        scene = build_demo_scene(SMALL)
        path = tmp_path / "slat.xlt"
        write_slat_table(path, scene.slat_target)
        back = read_slat_table(path, SMALL)
        assert np.array_equal(back.coords, scene.slat_target.coords)
        assert np.array_equal(back.features, scene.slat_target.features)


class TestPureFlowReference:
    def test_stages_match_hand_rolled_trace_without_opt_and_dilation(self):
        # with optimization and dilation off, the pipeline must reduce to a
        # plain patch-wise Euler loop; compare against one written out here
        from tiledflow.flowcore import OracleConditioner, extended_field, euler_integrate
        from tiledflow.lattice import Schedule, init_sparse_noise
        from tiledflow.patchwork import make_patch_grid
        from tiledflow.pipeline import _STREAM_SLAT_INIT, _STREAM_SS_NOISE, substream_seed
        from tiledflow.structedit import ToyCodec, iterative_sdedit

        scene = build_demo_scene(SMALL)
        config = small_config(dilated_enabled=False, seed=11)
        bundle = demo_bundle(scene)

        coords = generate_sparse_structure(scene.prior, config, bundle)
        slat = generate_slat(coords, scene.prior, config, bundle)

        # reference structure stage
        box = NormalizationBox.from_points(scene.prior.valid_points())
        occ0 = voxelize(scene.prior.valid_points(), box, SMALL)
        codec = ToyCodec(SMALL)
        grid = make_patch_grid(SMALL, config.d, SMALL.N)
        ref_coords = iterative_sdedit(
            occ0,
            config.t_noise,
            config.n_iter,
            Schedule.linear(config.t_start, config.schedule_steps),
            bundle.provider,
            OracleConditioner(),
            grid,
            codec,
            seed=substream_seed(config.seed, _STREAM_SS_NOISE),
        )
        assert np.array_equal(coords, ref_coords)

        # reference feature stage
        sgrid = make_patch_grid(SMALL, config.d, SMALL.M)
        Z1 = init_sparse_noise(ref_coords, SMALL, substream_seed(config.seed, _STREAM_SLAT_INIT))
        ref_slat = euler_integrate(
            Z1,
            Schedule.linear(1.0, config.schedule_steps),
            lambda Z, t: extended_field(Z, t, sgrid, bundle.provider, OracleConditioner()),
        )
        assert np.array_equal(slat.coords, ref_slat.coords)
        assert np.array_equal(
            slat.features.view(np.uint32), ref_slat.features.view(np.uint32)
        )
