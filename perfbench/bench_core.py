"""Workloads, output gate and measurement loop of the tiledflow benchmark.

The library is driven only through its public entry points: the demo
scene from `fixtures.build_demo_scene`, `pipeline.run_pipeline` or
`pipeline.generate_sparse_structure` for one scene, and
`bridge.ProviderServer` / `bridge.RemoteProvider` for the remote
workload.  Pipeline functions are looked up on their module at call
time so the traced run's wrappers apply.

Each workload is a closed loop with one client: the next scene starts
only after the previous one has finished and its outputs were checked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "tiledflow" / "__init__.py").is_file():
    raise ImportError(f"tiledflow sources not found in {SRC}")
sys.path.insert(0, str(SRC))

import tiledflow  # noqa: E402

if Path(tiledflow.__file__).resolve().parent != SRC / "tiledflow":
    raise ImportError(f"tiledflow imported from {tiledflow.__file__}, not from {SRC}")

from tiledflow import fixtures, pipeline, tensorio  # noqa: E402
from tiledflow.bridge import RemoteProvider  # noqa: E402
from tiledflow.lattice import Dims, OccupancyGrid  # noqa: E402
from tiledflow.optim import AdamParams  # noqa: E402
from tiledflow.pipeline import PipelineConfig, ProviderBundle  # noqa: E402

import bench_trace  # noqa: E402

ASSETS = ("scene.ply", "occupancy.xlt", "sdf.xlt", "slat.xlt")
# The structure-only workload exports nothing; its output is the
# completed coordinate set as little-endian int64 rows.
COORDS_ASSET = "coords.i64"
REFERENCE_SEED = 0
WINDOW_DIVISION = 4  # d: windows overlap by three quarters
SCHEDULE_STEPS = 25
DIGESTS_PATH = HERE / "digests.json"
# Set-up is repeated and its median reported; spawning the server
# process makes a remote set-up about ten times slower.
SETUP_REPEATS = 15
REMOTE_SETUP_REPEATS = 5
SERVER_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pipeline configuration plus its check.

    Every workload uses d = 4, 25 schedule steps and the demo scene.
    `feature_tol` bounds the exported features' distance from the scene
    target (None for the structure-only workload, which has none).
    """

    name: str
    why: str
    dims: Dims
    full_pipeline: bool
    adam: bool
    workers: int
    n_iter: int = 2
    remote: bool = False
    feature_tol: float | None = 1e-4

    def config(self, seed: int, out_dir: str | None) -> PipelineConfig:
        adam = AdamParams() if self.adam else AdamParams(steps=0)
        return PipelineConfig(
            dims=self.dims, d=WINDOW_DIVISION, schedule_steps=SCHEDULE_STEPS, n_iter=self.n_iter,
            ss_adam=adam, slat_adam=adam, seed=seed, workers=self.workers, out_dir=out_dir,
        )

    def describe(self) -> dict:
        d = self.dims
        return {
            "why": self.why, "dims": [d.a, d.b, d.N, d.M, d.C, d.l],
            "d": WINDOW_DIVISION, "schedule_steps": SCHEDULE_STEPS,
            "n_iter": self.n_iter, "stage": "pipeline" if self.full_pipeline else "structure",
            "adam": self.adam, "workers": self.workers, "remote": self.remote,
            "feature_tol": self.feature_tol,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "feature-exact-a3",
            "81 windows over 50,240 voxels: sparse feature stage dominates; single-threaded exact oracle, no pool, no wire",
            Dims(3, 3, 8, 32), full_pipeline=True, adam=False, workers=1,
        ),
        Workload(
            "optimized-a2",
            "default demo config at workers=1: Adam in both stages, so ss_loss, slat_objective and SSIM carry a large share",
            Dims(2, 2, 8, 32), full_pipeline=True, adam=True, workers=1, feature_tol=1e-3,
        ),
        Workload(
            "structure-a4",
            "structure completion only at a=4: dense gather/merge, dilated sampling, codec and ss_loss; the feature path is bypassed",
            Dims(4, 4, 8, 32), full_pipeline=False, adam=True, workers=1, n_iter=4, feature_tol=None,
        ),
        Workload(
            "remote-a2",
            "about 1,992 XFP1 loopback round trips per scene from a 2-thread client: serialization, framing, socket and pool time",
            Dims(2, 2, 8, 32), full_pipeline=True, adam=False, workers=2, remote=True,
        ),
    )
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digests() -> dict:
    """Asset digests recorded at the reference seed, per workload."""
    return json.loads(DIGESTS_PATH.read_text())["workloads"]


class ServerProcess:
    """The XFP1 oracle server in its own process (bench_server.py).

    The launcher prints its address, answers `stats` lines with its
    provider counters, and stops when its stdin closes.
    """

    def __init__(self, dims: Dims, workers: int, poison_reply: int | None = None):
        cmd = [
            sys.executable, str(HERE / "bench_server.py"),
            "--dims", ",".join(str(v) for v in (dims.a, dims.b, dims.N, dims.M, dims.C, dims.l)),
            "--workers", str(workers),
        ]
        if poison_reply is not None:
            cmd += ["--poison-reply", str(poison_reply)]
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self.address = self._proc.stdout.readline().strip()
        if not self.address:
            self.close()
            raise RuntimeError("benchmark server exited before reporting its address")

    def stats(self) -> dict:
        self._proc.stdin.write("stats\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Session:
    """What a workload builds before its first scene: the demo scene and
    its targets, and the provider; for the remote workload also the
    server process and the client connection."""

    def __init__(self, workload: Workload, poison_reply: int | None = None):
        self.workload = workload
        self.scene = fixtures.build_demo_scene(workload.dims)
        self.server = None
        if workload.remote:
            self.server = ServerProcess(workload.dims, SERVER_WORKERS, poison_reply)
            try:
                remote = RemoteProvider(self.server.address)
            except OSError:
                self.server.close()
                raise
            self.bundle = ProviderBundle(remote, "window")
        else:
            self.bundle = fixtures.demo_bundle(self.scene)

    def close(self) -> None:
        if self.server is not None:
            self.bundle.close()
            self.server.close()


def run_scene(session: Session, seed: int, out_dir: Path, bundle: ProviderBundle) -> tuple[float, dict]:
    """One scene from prior to exported assets; returns (seconds, assets).

    Only the library call is timed; reading the assets back is not.
    """
    w = session.workload
    prior = session.scene.prior
    if w.full_pipeline:
        config = w.config(seed, str(out_dir))
        started = time.perf_counter()
        pipeline.run_pipeline(prior, config, bundle)
        elapsed = time.perf_counter() - started
        return elapsed, {name: (out_dir / name).read_bytes() for name in ASSETS}
    config = w.config(seed, None)
    started = time.perf_counter()
    coords = pipeline.generate_sparse_structure(prior, config, bundle)
    elapsed = time.perf_counter() - started
    return elapsed, {COORDS_ASSET: np.ascontiguousarray(coords, dtype="<i8").tobytes()}


class OutputGate:
    """Checks every scene's outputs.

    Intrinsic checks compare against the demo scene's targets: IoU 1.0,
    coordinates equal to the target and bounded feature error.  Digest
    checks compare against the digests recorded at the reference seed
    and against the first scene run at the same seed.
    """

    def __init__(self, workload: Workload, scene):
        self.workload = workload
        self.scene = scene
        self.first: dict[int, dict] = {}
        self.recorded = recorded_digests().get(workload.name)

    def check(self, seed: int, assets: dict) -> list[str]:
        problems = self._intrinsic(assets)
        digests = {name: sha256(data) for name, data in assets.items()}
        expected = [("first scene at this seed", self.first.setdefault(seed, digests))]
        if seed == REFERENCE_SEED and self.recorded is not None:
            expected.append(("digests recorded at the reference seed", self.recorded))
        for source, want in expected:
            bad = sorted(n for n in set(want) | set(digests) if want.get(n) != digests.get(n))
            if bad:
                problems.append(f"{', '.join(bad)} differ from the {source}")
        return problems

    def _intrinsic(self, assets: dict) -> list[str]:
        w, scene = self.workload, self.scene
        target = scene.occ_target.occupied
        if w.full_pipeline:
            occ = tensorio.tensor_from_bytes(assets["occupancy.xlt"]).astype(bool)
        else:
            coords = np.frombuffer(assets[COORDS_ASSET], dtype="<i8").reshape(-1, 3)
            occ = OccupancyGrid.from_coords(w.dims, coords).occupied
        if occ.shape != target.shape:
            return [f"occupancy shape {occ.shape} != target {target.shape}"]
        iou = (occ & target).sum() / (occ | target).sum()
        problems = [] if iou == 1.0 else [f"occupancy IoU {iou:.6f} != 1.0"]
        if w.feature_tol is None:
            return problems
        table = tensorio.tensor_from_bytes(assets["slat.xlt"])
        coords = np.rint(table[:, :3]).astype(np.int64)
        want = scene.slat_target
        if not np.array_equal(coords, want.coords):
            return problems + ["feature coordinates differ from the target"]
        err = float(np.abs(table[:, 3:] - want.features).max())
        if not err <= w.feature_tol:
            problems.append(f"feature error {err:.3g} > {w.feature_tol:g}")
        return problems


@dataclass
class SceneRecord:
    """One scene of the loop: its seed, its time (None if it raised), its
    span run id, whether it passed, and the server's eval time when it
    was traced on the remote workload."""

    seed: int
    seconds: float | None
    run: int
    ok: bool = False
    server_eval_s: float | None = None


class Runner:
    """Runs and checks scenes of one session, counting attempts and failures."""

    def __init__(self, session: Session, gate: OutputGate, out_dir: Path):
        self.session = session
        self.gate = gate
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.untraced_targets: set[str] = set()

    def scene(self, seed: int, tracer: bench_trace.Tracer | None = None) -> SceneRecord:
        """Run one scene and check it.

        A scene that raises or fails its check counts as failed; it is
        not retried.  Its time is kept only when it ran to the end.
        """
        self.attempted += 1
        record = SceneRecord(seed, None, self.attempted)
        scene_dir = self.out_dir / f"scene-{self.attempted}"
        scene_dir.mkdir(parents=True)
        bundle = self.session.bundle
        server = self.session.server
        if tracer is not None:
            tracer.run = record.run
            provider = bench_trace.TracedProvider(bundle.provider, tracer)
            bundle = ProviderBundle(provider, bundle.conditioner_kind)
        try:
            before = server.stats() if tracer is not None and server is not None else None
            wrappers = (
                bench_trace.instrument(tracer, self.untraced_targets) if tracer is not None else nullcontext()
            )
            with wrappers:
                record.seconds, assets = run_scene(self.session, seed, scene_dir, bundle)
            if before is not None:
                record.server_eval_s = server.stats()["eval_s"] - before["eval_s"]
            problems = self.gate.check(seed, assets)
        except Exception as exc:  # a failed scene is counted, never fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(scene_dir, ignore_errors=True)
        record.ok = not problems
        if problems:
            self.fail(f"scene {record.run} (seed {seed}): " + "; ".join(problems), 1)
        return record

    def confirm(self, seed: int, source: str, digests: dict, records: list[SceneRecord]) -> None:
        """Compare a seed's scenes with a reference computed after them.

        Every scene that passed matched the first scene at its seed, so
        a mismatch fails all of them.
        """
        first = self.gate.first.get(seed)
        if first is None or first == digests:
            return
        passed = [r for r in records if r.seed == seed and r.ok]
        for r in passed:
            r.ok = False
        self.fail(f"seed {seed}: {len(passed)} scenes differ from the {source}", len(passed))

    def fail(self, message: str, scenes: int) -> None:
        self.failed += scenes
        self.errors.append(message)
        print(f"FAILED {message}", file=sys.stderr, flush=True)


def _setup(workload: Workload, poison_reply: int | None) -> tuple[Session, float]:
    """Build the session several times; keep the last, report the median."""
    times = []
    session = None
    for _ in range(REMOTE_SETUP_REPEATS if workload.remote else SETUP_REPEATS):
        if session is not None:
            session.close()
        started = time.perf_counter()
        session = Session(workload, poison_reply)
        times.append(time.perf_counter() - started)
    return session, median(times)


def _in_process_digests(session: Session, seed: int, out_dir: Path) -> dict:
    """Assets of an in-process run at `seed`: the remote workload's reference."""
    ref_dir = out_dir / f"reference-{seed}"
    ref_dir.mkdir(parents=True)
    try:
        _, assets = run_scene(session, seed, ref_dir, fixtures.demo_bundle(session.scene))
    finally:
        shutil.rmtree(ref_dir, ignore_errors=True)
    return {name: sha256(data) for name, data in assets.items()}


def _loop(runner: Runner, seeds, seconds: float, min_scenes: int, tracer=None) -> list[SceneRecord]:
    """Closed loop: scenes back to back until `seconds` have passed."""
    records = []
    started = time.perf_counter()
    for seed in seeds:
        if len(records) >= min_scenes and time.perf_counter() - started >= seconds:
            break
        records.append(runner.scene(seed, tracer))
    return records


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path,
                 poison_reply: int | None = None) -> dict:
    """Set up, run the closed loop for `seconds`, check every output.

    Untraced: every scene is timed, and at least two run, so the
    longest workload's median is not a single scene.  Traced: the first
    half of the time runs untraced scenes, the second half traced scenes
    alternating between `seed` and `seed + 1`, so exact counts are
    compared across two seeds; the difference of the two halves' median
    scene times is the tracing overhead.  The remote workload's in-process reference
    runs after the loop, once peak memory has been read, so neither
    setup time nor the client's memory includes it.  `poison_reply`
    makes the remote server answer that request with NaNs (the
    benchmark's negative control).
    """
    out_dir = out_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    session, setup_s = _setup(workload, poison_reply)
    result = {"workload": workload.name, "seed": seed, "trace": int(trace)}
    try:
        runner = Runner(session, OutputGate(workload, session.scene), out_dir)
        seeds = (seed, seed + 1) if trace else (seed,)
        if not trace:
            records = _loop(runner, itertools.repeat(seed), seconds, 2)
            traced = []
        else:
            records = _loop(runner, itertools.repeat(seed), seconds / 2, 1)
            tracer = bench_trace.Tracer()
            traced = _loop(runner, itertools.cycle(seeds), seconds / 2, 2, tracer)
            result["layers"], count_problems = _layers(tracer, traced, records)
            for problem in count_problems:
                runner.fail(problem, 0)
            spans_path = out_root / f"spans-{workload.name}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_path, {r.run: r.seed for r in traced})
            result["spans"] = str(spans_path)
            result["untraced_targets"] = sorted(runner.untraced_targets)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.remote:
            for s in seeds:
                digests = _in_process_digests(session, s, out_dir)
                runner.confirm(s, "in-process run", digests, records + traced)
    finally:
        session.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    times = [r.seconds for r in records if r.seconds is not None]
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        correct=runner.failed == 0 and not runner.errors,
        errors=runner.errors,
        scene_seconds=times,
        metrics={
            "run_s": median(times) if times else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "fail_ratio": runner.failed / runner.attempted,
        },
    )
    return result


def _layers(tracer: bench_trace.Tracer, traced: list[SceneRecord], untraced: list[SceneRecord]):
    """Per-layer metrics over the traced scenes, and any count mismatch.

    Times are medians over traced scenes; counts must be equal in every
    traced scene, whatever its seed, and are reported once.
    """
    spans_by_run = {}
    for span in tracer.recorded:
        spans_by_run.setdefault(span.run, []).append(span)
    done = [r for r in traced if r.seconds is not None]
    per_scene = [
        bench_trace.scene_metrics(spans_by_run.get(r.run, []), r.server_eval_s)
        for r in done
    ]
    problems = []
    layers = {}
    for name in per_scene[0] if per_scene else ():
        values = [m[name] for m in per_scene]
        if bench_trace.is_exact_count(name):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced scenes: {values}")
            layers[name] = values[0]
        elif name == "bridge.in_flight_max":
            layers[name] = max(values)
        else:
            layers[name] = median(values)
    untraced_times = [r.seconds for r in untraced if r.seconds is not None]
    if done and untraced_times:
        traced_s = median(r.seconds for r in done)
        base_s = median(untraced_times)
        layers["trace.run_s"] = traced_s
        layers["trace.untraced_run_s"] = base_s
        layers["trace.overhead_s"] = traced_s - base_s
        layers["trace.overhead_ratio"] = (traced_s - base_s) / base_s
    return layers, problems
