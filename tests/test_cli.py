import json
from dataclasses import replace

import numpy as np
import pytest

from tiledflow import tensorio
from tiledflow.cli import main
from tiledflow.decode import export_ply
from tiledflow.fixtures import build_demo_scene
from tiledflow.lattice import Dims, OccupancyGrid
from tiledflow.pipeline import write_slat_table
from tiledflow.priors import write_scene_prior


SMALL = Dims(2, 2, 4, 8, C=1, l=4)


def small_config_dict(out_dir):
    return {
        "dims": {"a": 2, "b": 2, "N": 4, "M": 8},
        "d": 2,
        "schedule_steps": 8,
        "n_iter": 1,
        "ss_adam": {"steps": 0},
        "slat_adam": {"steps": 0},
        "out_dir": str(out_dir),
    }


class TestInspect:
    def test_prints_shape_and_stats(self, tmp_path, capsys):
        path = tmp_path / "t.xlt"
        tensorio.write_tensor(path, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert main(["inspect", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["shape"] == [2, 3, 4]
        assert out["max"] == 23.0
        assert out["finite"] is True

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.xlt")]) == 3

    @staticmethod
    def strict_json(text):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        return json.loads(text, parse_constant=reject)

    def test_zero_size_tensor_has_null_stats(self, tmp_path, capsys):
        path = tmp_path / "empty.xlt"
        tensorio.write_tensor(path, np.zeros((0, 3), dtype=np.float32))
        assert main(["inspect", str(path)]) == 0
        out = self.strict_json(capsys.readouterr().out)
        assert out["shape"] == [0, 3]
        assert out["dtype"] == "float32"
        assert [out[k] for k in ("min", "max", "mean", "std")] == [None] * 4
        assert out["finite"] is True

    @pytest.mark.parametrize(
        "values, stats",
        [([1.0, np.nan, np.inf, -2.0], [None] * 4), ([1.0, np.inf, -2.0], [-2.0, None, None, None])],
    )
    def test_non_finite_tensor_prints_valid_json(self, tmp_path, capsys, values, stats):
        path = tmp_path / "nonfinite.xlt"
        tensorio.write_tensor(path, np.array(values, dtype=np.float32))
        assert main(["inspect", str(path)]) == 0
        out = self.strict_json(capsys.readouterr().out)
        assert out["shape"] == [len(values)]
        assert [out[k] for k in ("min", "max", "mean", "std")] == stats
        assert out["finite"] is False


class TestVoxelize:
    def test_ply_to_occupancy(self, tmp_path, capsys):
        grid = OccupancyGrid.from_coords(SMALL, np.array([[0, 0, 0], [15, 15, 7], [4, 9, 3]]))
        cloud = tmp_path / "cloud.ply"
        cloud.write_bytes(export_ply(grid))
        out = tmp_path / "grid.xlt"
        assert main(["voxelize", str(cloud), "--dims", "2,2,4,8", "--out", str(out)]) == 0
        back = tensorio.read_tensor(out)
        assert back.shape == SMALL.grid_shape
        assert int(back.sum()) == 3

    def test_bad_dims_is_config_error(self, tmp_path):
        cloud = tmp_path / "cloud.ply"
        cloud.write_bytes(export_ply(OccupancyGrid.from_coords(SMALL, np.array([[1, 1, 1]]))))
        assert main(["voxelize", str(cloud), "--dims", "2,2", "--out", str(tmp_path / "o.xlt")]) == 2

    @pytest.mark.parametrize("dims", ["2,x,4,8", "2,2,4,6", "2,2,0,8", "2,2,4,8,"])
    def test_invalid_dims_are_config_errors(self, tmp_path, dims, capsys):
        cloud = tmp_path / "cloud.ply"
        cloud.write_bytes(export_ply(OccupancyGrid.from_coords(SMALL, np.array([[1, 1, 1]]))))
        assert main(["voxelize", str(cloud), "--dims", dims, "--out", str(tmp_path / "o.xlt")]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestGenerate:
    def _write_oracle_inputs(self, tmp_path):
        scene = build_demo_scene(SMALL)
        prior_path = tmp_path / "scene.spr"
        write_scene_prior(prior_path, scene.prior)
        ss_path = tmp_path / "ss_target.xlt"
        tensorio.write_tensor(ss_path, scene.ss_target.data)
        slat_path = tmp_path / "slat_target.xlt"
        write_slat_table(slat_path, scene.slat_target)
        return scene, prior_path, ss_path, slat_path

    def test_end_to_end_with_config_file(self, tmp_path, capsys):
        scene, prior_path, ss_path, slat_path = self._write_oracle_inputs(tmp_path)
        config = small_config_dict(tmp_path / "out")
        config["oracle_ss_target"] = str(ss_path)
        config["oracle_slat_target"] = str(slat_path)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        occ = tensorio.read_tensor(report["asset_paths"]["occupancy_xlt"]).astype(bool)
        assert np.array_equal(occ, scene.occ_target.occupied)

    def test_unknown_config_key_exit_code(self, tmp_path):
        _, prior_path, *_ = self._write_oracle_inputs(tmp_path)
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"not_a_key": 1}))
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"provider": 5},
            {"n_iter": 2.5},
            {"workers": 1.5},
            {"out_dir": 7},
            {"seed": -1},
            {"ss_adam": {"steps": 2.5}},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, bad):
        _, prior_path, ss_path, slat_path = self._write_oracle_inputs(tmp_path)
        config = small_config_dict(tmp_path / "out")
        config["oracle_ss_target"] = str(ss_path)
        config["oracle_slat_target"] = str(slat_path)
        config.update(bad)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"dilated_enabled": "no"},
            {"optimize_every_round": 0},
            {"t_start": True},
            {"ss_adam": {"steps": 1, "eps": "x"}},
            {"loss_weights": {"l2": float("nan")}},
            {"ss_adam": {"lr": float("nan")}},
        ],
        ids=[
            "dilated_enabled-str", "optimize_every_round-int", "t_start-bool", "eps-str", "l2-nan", "lr-nan"
        ],
    )
    def test_mistyped_bool_or_float_is_config_error(self, tmp_path, capsys, bad):
        _, prior_path, ss_path, slat_path = self._write_oracle_inputs(tmp_path)
        config = small_config_dict(tmp_path / "out")
        config["oracle_ss_target"] = str(ss_path)
        config["oracle_slat_target"] = str(slat_path)
        config.update(bad)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))  # NaN is written as the token NaN
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path):
        _, prior_path, *_ = self._write_oracle_inputs(tmp_path)
        config_path = tmp_path / "c.json"
        config_path.write_bytes(b'{"out_dir": "\xff"}')
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2

    def test_missing_oracle_targets_is_config_error(self, tmp_path):
        _, prior_path, *_ = self._write_oracle_inputs(tmp_path)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(small_config_dict(tmp_path / "out")))
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2

    def test_prior_without_valid_points_is_config_error(self, tmp_path, capsys):
        scene, _, ss_path, slat_path = self._write_oracle_inputs(tmp_path)
        prior_path = tmp_path / "blind.spr"
        write_scene_prior(prior_path, replace(scene.prior, valid=np.zeros_like(scene.prior.valid)))
        config = small_config_dict(tmp_path / "out")
        config["oracle_ss_target"] = str(ss_path)
        config["oracle_slat_target"] = str(slat_path)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert main(["generate", str(prior_path), "--config", str(config_path)]) == 2
        assert "no valid points" in capsys.readouterr().err

    def test_corrupt_prior_is_runtime_error(self, tmp_path):
        _, prior_path, ss_path, slat_path = self._write_oracle_inputs(tmp_path)
        config = small_config_dict(tmp_path / "out")
        config["oracle_ss_target"] = str(ss_path)
        config["oracle_slat_target"] = str(slat_path)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        bad_prior = tmp_path / "bad.spr"
        bad_prior.write_bytes(prior_path.read_bytes()[:-9])
        assert main(["generate", str(bad_prior), "--config", str(config_path)]) == 3


class TestOracleDemo:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["oracle-demo", "--out", str(out), "--seed", "1", "--exact"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (out / "scene.ply").exists()
        assert (out / "report.json").exists()
        assert [s["name"] for s in report["stages"]] == [
            "sparse_structure",
            "structured_latent",
            "decode_export",
        ]


class TestServeOracle:
    def test_requires_target(self, tmp_path):
        assert main(["serve-oracle", "--listen", "127.0.0.1:0", "--dims", "2,2,4,8"]) == 2


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["generate", "oracle-demo", "serve-oracle"])
    def test_below_one_is_config_error(self, tmp_path, monkeypatch, capsys, command, workers):
        """serve-oracle refuses a thread count below one as a configuration
        error; generate and oracle-demo take no worker count and refuse the
        flag.  Each exits 2 without running."""
        import tiledflow.bridge
        import tiledflow.fixtures

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{command} ran with --workers {workers}")

        monkeypatch.setattr(tiledflow.bridge, "serve_provider", must_not_run)
        monkeypatch.setattr(tiledflow.fixtures, "run_oracle_demo", must_not_run)
        scene = build_demo_scene(SMALL)
        prior_path = tmp_path / "scene.spr"
        write_scene_prior(prior_path, scene.prior)
        target = tmp_path / "ss_target.xlt"
        tensorio.write_tensor(target, scene.ss_target.data)
        argv = {
            "generate": ["generate", str(prior_path), "--out", str(tmp_path / "out")],
            "oracle-demo": ["oracle-demo", "--out", str(tmp_path / "demo")],
            "serve-oracle": [
                "serve-oracle", "--target", str(target), "--listen", "127.0.0.1:0",
                "--dims", "2,2,4,8",
            ],
        }[command] + ["--workers", workers]
        if command == "serve-oracle":
            assert main(argv) == 2
            assert "workers must be >= 1" in capsys.readouterr().err
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "oracle-demo"])
    def test_engine_commands_take_no_workers_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command] + (["scene.spr"] if command == "generate" else []) + ["--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
