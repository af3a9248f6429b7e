import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiledflow.pipeline as pl
from tiledflow import tensorio
from tiledflow.decode import decode_scene_sdf
from tiledflow.errors import ConfigError, ParseError, TiledFlowError
from tiledflow.fixtures import build_demo_scene, demo_bundle, run_oracle_demo
from tiledflow.flowcore import ImageConditioner, OracleConditioner
from tiledflow.lattice import Dims
from tiledflow.optim import AdamParams
from tiledflow.pipeline import (
    PipelineConfig,
    ProviderBundle,
    RunReport,
    config_from_dict,
    generate_slat,
    generate_sparse_structure,
    load_config,
    read_slat_table,
    run_pipeline,
    write_slat_table,
)
from tiledflow.patchwork import SparseWindowPlan, make_patch_grid
from tiledflow.priors import NormalizationBox, toy_condition, voxelize

from reference_copies import ZeroFieldProvider


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

    @pytest.mark.parametrize(
        "raw,name",
        [
            ({"dilated_enabled": "no"}, "dilated_enabled"),
            ({"optimize_every_round": 0}, "optimize_every_round"),
            ({"t_start": True}, "t_start"),
            ({"t_noise": "0.5"}, "t_noise"),
            ({"ss_adam": {"eps": "x"}}, "eps"),
            ({"ss_adam": {"eps": 0.0}}, "eps"),
            ({"slat_adam": {"beta1": False}}, "beta1"),
            ({"loss_weights": {"l2": float("nan")}}, "l2"),
            ({"loss_weights": {"ssim": float("inf")}}, "ssim"),
            ({"ss_adam": {"lr": float("nan")}}, "lr"),
        ],
        ids=[
            "dilated_enabled-str", "optimize_every_round-int", "t_start-bool", "t_noise-str", "eps-str",
            "eps-zero", "beta1-bool", "l2-nan", "ssim-inf", "lr-nan",
        ],
    )
    def test_bool_and_float_fields_checked(self, raw, name):
        with pytest.raises(ConfigError, match=name):
            config_from_dict(raw)

    def test_adam_state_persist_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"adam_state_persist": True})

    def test_trace_losses_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"trace_losses": True})


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

    def test_window_conditions_built_once_per_stage(self, monkeypatch):
        calls = []
        real = OracleConditioner.window_condition

        def spy(self, window):
            calls.append((window.i, window.j))
            return real(self, window)

        monkeypatch.setattr(OracleConditioner, "window_condition", spy)
        scene = build_demo_scene(SMALL)
        config = small_config(n_iter=2)
        generate_sparse_structure(scene.prior, config, demo_bundle(scene))
        grid = make_patch_grid(SMALL, config.d, SMALL.N)
        assert calls == [(w.i, w.j) for w in grid.windows()]

    def test_optimize_every_round_flag(self, monkeypatch):
        calls = []
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

    def test_report_records_each_optimized_steps_losses(self, tmp_path, monkeypatch):
        # the objectives tell which stage and t an optimize_vector call serves
        seen = []

        def tagged(stage, loss):
            def spy(vec, Z, t, *rest):
                seen.append((stage, t))
                return loss(vec, Z, t, *rest)

            return spy

        monkeypatch.setattr(pl, "ss_loss", tagged("sparse_structure", pl.ss_loss))
        monkeypatch.setattr(pl, "slat_objective", tagged("structured_latent", pl.slat_objective))
        calls = []
        real = pl.optimize_vector

        def spy(v, objective, params):
            seen.clear()
            result = real(v, objective, params)
            ((stage, t),) = set(seen)
            calls.append((stage, t, result[1]))
            return result

        monkeypatch.setattr(pl, "optimize_vector", spy)
        scene = build_demo_scene(SMALL)
        config = small_config(
            out_dir=str(tmp_path / "out"), ss_adam=AdamParams(steps=2), slat_adam=AdamParams(steps=2)
        )
        report = run_pipeline(scene.prior, config, demo_bundle(scene))

        expected = {
            name: [{"t": t, "loss": losses} for stage, t, losses in calls if stage == name]
            for name in ("sparse_structure", "structured_latent")
        }
        assert all(expected.values())
        assert report.losses == expected
        for name, steps in expected.items():
            assert all(a["loss"] is b["loss"] for a, b in zip(report.losses[name], steps))
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert written["losses"] == expected

    def test_empty_image_windows_reported_for_both_stages(self, monkeypatch):
        conditions = {}
        real = ImageConditioner.window_condition

        def spy(self, window):
            condition = real(self, window)
            conditions[(self.grid.K, window.i, window.j)] = condition
            return condition

        monkeypatch.setattr(ImageConditioner, "window_condition", spy)
        scene = build_demo_scene(SMALL)
        valid = scene.prior.valid.copy()
        valid[:8, :8] = False
        prior = replace(scene.prior, valid=valid)
        config = small_config(provider="remote:unused:0", conditioner="image")
        bundle = ProviderBundle(ZeroFieldProvider(), "image")
        report = RunReport()
        coords = generate_sparse_structure(prior, config, bundle, report)
        generate_slat(coords, prior, config, bundle, report)

        assert report.empty_windows == [
            {"stage": "ss", "window": [0, 0]},
            {"stage": "slat", "window": [0, 0]},
        ]
        whole_image = toy_condition(prior.image)
        assert conditions[(SMALL.N, 0, 0)] == whole_image
        assert conditions[(SMALL.M, 0, 0)] == whole_image
        assert conditions[(SMALL.M, 1, 1)] != whole_image


class TestSlatTableIO:
    def test_round_trip(self, tmp_path):
        scene = build_demo_scene(SMALL)
        path = tmp_path / "slat.xlt"
        write_slat_table(path, scene.slat_target)
        back = read_slat_table(path, SMALL)
        assert np.array_equal(back.coords, scene.slat_target.coords)
        assert np.array_equal(back.features, scene.slat_target.features)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "row, col, value",
        [
            (0, 3, np.nan),  # feature
            (0, 4, np.inf),  # feature
            (0, 0, np.nan),
            (0, 1, np.inf),
            (0, 2, 1e30),
            (0, 0, 0.4),
            (0, 0, -1.0),
            (0, 2, float(SMALL.M)),
        ],
    )
    def test_malformed_table_is_parse_error(self, tmp_path, row, col, value):
        table = _slat_table()
        table[row, col] = value
        path = tmp_path / "bad.xlt"
        tensorio.write_tensor(path, table)
        with pytest.raises(ParseError):
            read_slat_table(path, SMALL)

    def test_duplicate_coordinate_is_parse_error(self, tmp_path):
        table = _slat_table()
        table[0, :3] = table[1, :3]
        path = tmp_path / "dup.xlt"
        tensorio.write_tensor(path, table)
        with pytest.raises(ParseError):
            read_slat_table(path, SMALL)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200)
    @given(st.data())
    def test_mutated_tables_give_their_rows_or_a_typed_error(self, tmp_path_factory, data):
        valid = _slat_table()
        cells = st.tuples(
            st.integers(0, valid.shape[0] - 1),
            st.integers(0, valid.shape[1] - 1),
            st.sampled_from([np.nan, np.inf, -1.0, 0.4, 1e30, float(SMALL.M), 2 * SMALL.M, 0.0, 3.0]),
        )
        table = valid.copy()
        for row, col, value in data.draw(st.lists(cells, min_size=1, max_size=3)):
            table[row, col] = value
        blob = bytearray(tensorio.tensor_to_bytes(table))
        for at, chunk in data.draw(
            st.lists(st.tuples(st.integers(0, len(blob)), st.binary(min_size=1, max_size=8)), max_size=2)
        ):
            blob[at : at + len(chunk)] = chunk
        path = tmp_path_factory.mktemp("slat") / "t.xlt"
        path.write_bytes(bytes(blob))
        try:
            back = read_slat_table(path, SMALL)
        except TiledFlowError:
            return
        rows = np.concatenate([back.coords.astype(np.float32), back.features], axis=1)
        table = tensorio.tensor_from_bytes(bytes(blob))
        assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, table.tolist()))


def _slat_table() -> np.ndarray:
    """A valid sparse latent table of the demo scene: x, y, z, features."""
    target = build_demo_scene(SMALL).slat_target
    return np.concatenate([target.coords.astype(np.float32), target.features], axis=1)


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
