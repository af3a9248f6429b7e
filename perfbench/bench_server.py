"""Launcher for the remote workload's XFP1 server, run as its own process.

    python3 perfbench/bench_server.py --dims 2,2,8,32,1,4 --workers 2

Serves `ProviderServer(workers=...)` over the demo scene's
`GlobalOracleProvider` on a free loopback port and prints the address as
its first line.  Each `stats` line on stdin is answered with one JSON
line of the provider counters (evaluations and seconds spent inside the
provider); closing stdin stops the server and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

import bench_core  # noqa: F401  (puts the checkout's src/ on sys.path)
from tiledflow.bridge import ProviderServer
from tiledflow.fixtures import build_demo_scene
from tiledflow.flowcore import GlobalOracleProvider, VectorFieldProvider
from tiledflow.lattice import Dims, SparseLatent


class TimedProvider(VectorFieldProvider):
    """Delegating provider that sums the time spent in `evaluate`.

    With `poison_reply = k`, the k-th evaluation answers a well-formed
    reply of NaNs instead: the negative control for a corrupted remote
    reply.  The server serializes any result's `data` array, so a plain
    namespace carries values a latent type would refuse to hold.
    """

    def __init__(self, inner: VectorFieldProvider, poison_reply: int | None = None):
        self.inner = inner
        self.concurrent_safe = inner.concurrent_safe
        self.poison_reply = poison_reply
        self.evals = 0
        self.eval_s = 0.0
        self._lock = threading.Lock()

    def evaluate(self, patch, condition, t):
        started = time.perf_counter()
        vector = self.inner.evaluate(patch, condition, t)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.evals += 1
            self.eval_s += elapsed
            poison = self.evals == self.poison_reply
        if poison:
            values = vector.features if isinstance(vector, SparseLatent) else vector.data
            return SimpleNamespace(data=np.full_like(values, np.nan))
        return vector

    def stats(self) -> dict:
        with self._lock:
            return {"evals": self.evals, "eval_s": self.eval_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", required=True, help="a,b,N,M,C,l")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--poison-reply", type=int, default=None)
    args = parser.parse_args(argv)
    dims = Dims(*(int(v) for v in args.dims.split(",")))
    scene = build_demo_scene(dims)
    oracle = GlobalOracleProvider(ss_target=scene.ss_target, slat_target=scene.slat_target)
    provider = TimedProvider(oracle, args.poison_reply)
    with ProviderServer(provider, dims, workers=args.workers) as server:
        print(server.address, flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(provider.stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
