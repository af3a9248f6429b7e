"""Smoke tests: the demos run from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# demo 04 runs in the test below, which also checks what it prints
@pytest.mark.parametrize(
    "name", ["01_patchwise_flow.py", "02_scene_completion.py", "03_full_pipeline.py", "05_sdf_stitching.py"]
)
def test_demo_runs(name, tmp_path):
    result = run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr


def test_remote_provider_demo_is_bit_identical(tmp_path):
    result = run_demo("04_remote_provider.py", tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert any(line.endswith("bit-identical to in-process: True") for line in lines), result.stdout
