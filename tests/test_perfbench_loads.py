"""The benchmark under perfbench/ still loads against this checkout.

`perfbench/bench_core.py` imports the library and `bench_trace`, which
wraps library functions by module attribute.  A change that removes a
name either of them uses fails here instead of in a benchmark run; so
does one that removes a provider attribute the benchmark's wrapping
providers (`bench_server.TimedProvider`, `bench_trace.TracedProvider`)
read when they are built.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import json
import bench_core, bench_server, bench_trace
from tiledflow.flowcore import GlobalOracleProvider
bench_server.TimedProvider(GlobalOracleProvider())
bench_trace.TracedProvider(GlobalOracleProvider(), bench_trace.Tracer())
missing = set()
with bench_trace.instrument(bench_trace.Tracer(), missing):
    pass
print(json.dumps(sorted(missing)))
"""


def test_bench_core_imports_and_instruments():
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=PERFBENCH,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    missing = json.loads(result.stdout.strip().splitlines()[-1])
    # flowcore gathers sparse windows through SparseWindowPlan, so the
    # trace's wrap of flowcore.patch_sparse has had no target since then;
    # nor have its wraps of flowcore.patch_dense and merge_vectors since
    # flowcore stopped importing them, and their spans already read 0
    # because no field calls them
    assert set(missing) == {
        "tiledflow.flowcore.patch_sparse",
        "tiledflow.flowcore.patch_dense",
        "tiledflow.flowcore.merge_vectors",
    }
