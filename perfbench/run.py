"""tiledflow benchmark: four closed-loop oracle-scene workloads.

One workload, one fresh process (so peak memory is per workload):

    python3 perfbench/run.py --workload feature-exact-a3 --seed 1 --seconds 10 --trace 0

With `--trace 0` it reports the end-to-end metrics declared in
BENCHMARK.json; with `--trace 1` it runs half its time untraced and half
traced and reports the declared per-layer metrics.  The last stdout line
is the JSON result; the lines before it give the environment, every
metric with its unit, and the full per-layer table.  The full record
goes to .perfbench_out/, and a traced run also writes its spans there.
The exit code is 1 when any output check failed.

All workloads, each in its own process, with one summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 10 [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _read_first(paths) -> str | None:
    for path in paths:
        try:
            return Path(path).read_text().strip()
        except OSError:
            continue
    return None


def environment(seed: int) -> dict:
    """Machine and toolchain facts; the cgroup files are only read."""
    import numpy as np

    quota = _read_first(["/sys/fs/cgroup/cpu.max"])
    if quota is None:
        v1 = [_read_first([f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us"]) for k in ("quota", "period")]
        quota = None if None in v1 else " ".join(v1)
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cgroup_cpu_quota": quota,
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def run_one(args) -> int:
    import bench_core
    from bench_trace import layer_unit

    workload = bench_core.WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    result = bench_core.run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT_ROOT)
    result["env"] = environment(args.seed)
    result["workloads"] = {name: w.describe() for name, w in bench_core.WORKLOADS.items()}
    record = OUT_ROOT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2, sort_keys=True))

    print(json.dumps({"env": result["env"], "workload": workload.name, **workload.describe()}))
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
    for name, value in result["metrics"].items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    layers = result.get("layers", {})
    for name in sorted(layers):
        print(f"{workload.name} {name} = {layers[name]:.6g} {layer_unit(name)}")
    for target in result.get("untraced_targets", ()):
        print(f"{workload.name} not traced: {target} no longer exists")
    for error in result["errors"]:
        print(f"{workload.name} check failed: {error}")

    values = layers if args.trace else result["metrics"]
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
        elif m["unit"] not in ("s", "ms") or not result["correct"]:
            value = 0  # a count of a layer this workload does not run, or a failed run
        else:
            raise KeyError(f"declared metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one table; non-zero on any failure."""
    import bench_core

    status = 0
    rows = []
    for name in bench_core.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        record_path = OUT_ROOT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record_path.unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            status = 1
        if proc.returncode not in (0, 1) or not record_path.is_file():
            rows.append(f"{name}: crashed with exit code {proc.returncode}")
            continue
        record = json.loads(record_path.read_text())
        m = record["metrics"]
        rows.append(
            f"{name}: run_s {m['run_s']:.4f} s, setup_s {m['setup_s']:.4f} s, "
            f"peak_rss_mb {m['peak_rss_mb']:.1f} MB, fail_ratio {m['fail_ratio']:.3f} ratio "
            f"({record['failed']}/{record['attempted']} scenes failed)"
        )
        if args.trace:
            for key, value in sorted(record.get("layers", {}).items()):
                rows.append(f"    {key} = {value:.6g}")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiledflow benchmark")
    parser.add_argument("--workload", help="workload name (see perfbench/bench_core.py)")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
