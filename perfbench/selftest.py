"""Tests of the benchmark itself: negative controls, exact counts, set-up failure.

They run the benchmark's own loop on small variants of its workloads
(a 2 x 2 scene on an 8-voxel fine grid), so they take seconds.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository test suite's default
collection: it tests the benchmark, not the library.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import bench_core
import bench_trace
from tiledflow import pipeline
from tiledflow.lattice import Dims

SMALL = Dims(2, 2, 4, 8)
EXACT = dataclasses.replace(bench_core.WORKLOADS["feature-exact-a3"], name="small-exact", dims=SMALL)
REMOTE = dataclasses.replace(bench_core.WORKLOADS["remote-a2"], name="small-remote", dims=SMALL)


def _runner(workload, tmp_path):
    session = bench_core.Session(workload)
    gate = bench_core.OutputGate(workload, session.scene)
    return session, bench_core.Runner(session, gate, tmp_path)


def test_corrupted_output_fails_its_scene(tmp_path, monkeypatch):
    session, runner = _runner(EXACT, tmp_path)
    try:
        assert runner.scene(3).ok
        export = pipeline.export_ply

        def corrupted(*args, **kwargs):
            data = bytearray(export(*args, **kwargs))
            data[-2] ^= 1  # one digit of the last vertex
            return bytes(data)

        monkeypatch.setattr(pipeline, "export_ply", corrupted)
        assert not runner.scene(3).ok
    finally:
        session.close()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "scene.ply differ from the first scene" in runner.errors[0]


def test_feature_error_fails_the_intrinsic_check(tmp_path, monkeypatch):
    write = pipeline.write_slat_table

    def shifted(path, slat):
        write(path, slat.with_features(slat.features + np.float32(1e-3)))

    monkeypatch.setattr(pipeline, "write_slat_table", shifted)
    session, runner = _runner(EXACT, tmp_path)
    try:
        assert not runner.scene(3).ok
    finally:
        session.close()
    assert runner.failed == 1
    assert "feature error" in runner.errors[0]


def test_poisoned_remote_reply_fails_the_run(tmp_path):
    result = bench_core.run_workload(REMOTE, 3, 0.0, False, tmp_path, poison_reply=5)
    # The first scene gets the poisoned reply and is not retried; the second is clean.
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["metrics"]["fail_ratio"] == 0.5


def test_remote_run_matches_in_process_and_counts_repeat(tmp_path):
    result = bench_core.run_workload(REMOTE, 3, 0.0, True, tmp_path)
    assert result["correct"], result["errors"]
    assert result["attempted"] == 3  # one untraced scene, then seeds 3 and 4 traced
    layers = result["layers"]
    assert layers["bridge.requests"] == layers["flowcore.provider_evals"] > 0
    assert layers["bridge.errors"] == 0
    assert layers["flowcore.euler_steps"] == 3 * 24  # two structure rounds, one feature pass
    assert layers["bridge.server_eval_s"] > 0.0
    spec = json.loads((bench_core.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert metric["name"] in layers, metric["name"]


def test_exact_counts_are_equal_across_seeds(tmp_path):
    result = bench_core.run_workload(EXACT, 5, 0.0, True, tmp_path)
    assert result["correct"], result["errors"]
    assert result["layers"]["lattice.sparse_builds"] > 0
    assert "bridge.requests" not in result["layers"]


def test_count_mismatch_fails_the_traced_run(tmp_path, monkeypatch):
    counts = iter(range(1, 10**9))
    targets = [
        (owner, attr, name, (lambda args, result: next(counts)) if name == "lattice.sparse_build" else size)
        for owner, attr, name, size in bench_trace._TARGETS
    ]
    monkeypatch.setattr(bench_trace, "_TARGETS", targets)
    result = bench_core.run_workload(EXACT, 5, 0.0, True, tmp_path)
    assert not result["correct"]
    assert any("lattice.sparse_build_rows differs" in e for e in result["errors"])


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((bench_core.ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    assert declared == {name: w.why for name, w in bench_core.WORKLOADS.items()}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(bench_core.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_core.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure-a4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
