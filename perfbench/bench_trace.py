"""Span tracing for the benchmark's traced run, kept outside the library.

`instrument(tracer)` replaces public tiledflow functions with timing
wrappers at the module attributes through which their callers look them
up (for example `structedit.extended_field`, not only
`flowcore.extended_field`), plus a few class attributes: the
`SparseLatent` constructor, the toy codec and the dilated partition.
The provider is wrapped by `TracedProvider`.  Leaving the context
restores every original attribute.

Spans live in memory as (id, parent, name, start, end, run, size, ok)
and are written out once, when the benchmark ends.  Spans started on a
worker thread with an empty stack take the main thread's innermost span
as parent: the pipeline's thread pools run while the main thread waits
inside the field call that submitted them.  A span's self time is its
duration minus the union of its children's intervals, so overlapping
children on worker threads are not counted twice.

Import `bench_core` first: it puts the checkout's `src/` on the path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter
from typing import NamedTuple

import numpy as np

from tiledflow import bridge, decode, flowcore, lattice, optim, patchwork, pipeline, structedit, tensorio
from tiledflow.flowcore import VectorFieldProvider
from tiledflow.lattice import SparseLatent


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    run: int
    size: object  # work count; (cells, bytes sent, bytes received) for the provider
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `run` tags the spans of the current scene.

    Spans are kept as plain tuples while recording (see `recorded`).
    """

    def __init__(self):
        self._raw: list[tuple] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()

    @property
    def recorded(self) -> list[Span]:
        return [Span(*raw) for raw in self._raw]

    def wrap(self, name, fn, size=None):
        """Wrap `fn` so each call records a span.

        `name` is a string or a function of the call's arguments;
        `size(args, result)` gives the span's work count (rows, bytes).
        A call that raises is recorded with `ok` false and size 0.
        """
        raw, ids, local = self._raw, self._ids, self._local
        main_ident, main_stack = self._main_ident, self._main_stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() == main_ident:
                stack = main_stack
                parent = stack[-1] if stack else 0
            else:
                stack = local.__dict__.setdefault("stack", [])
                parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            span_id = next(ids)
            stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                raw.append((
                    span_id, parent, name if isinstance(name, str) else name(args), start, end,
                    tracer.run, size(args, result) if ok and size is not None else 0, ok,
                ))
            return result

        return traced

    def write_jsonl(self, path, seeds: dict[int, int]) -> None:
        spans = self.recorded
        origin = min((s.start for s in spans), default=0.0)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "run": s.run, "seed": seeds.get(s.run), "id": s.id, "parent": s.parent,
                    "name": s.name, "start": round(s.start - origin, 9),
                    "end": round(s.end - origin, 9), "size": s.size, "ok": s.ok,
                }) + "\n")


# Fixed head of an XFP1 eval request (see the tiledflow.bridge docstring),
# measured once through the public encoder so computed byte counts
# follow the wire format.
_EVAL_HEAD = len(bridge.encode_eval_request(bridge.EvalRequest(0.0, bridge.MODE_DENSE, (0, 0, 0, 0), b"", b"")))


def _provider_size(args, result) -> tuple[int, int, int]:
    """Cells (dense lattice cells or sparse rows) of one provider input,
    and the computed XFP1 request and response frame sizes."""
    patch, condition = args[0], args[1]
    if isinstance(patch, SparseLatent):
        cells = len(patch)
        latent = 4 + cells * (12 + 4 * patch.dims.l)
        reply = 4 * cells * patch.dims.l
    else:
        cells = math.prod(patch.data.shape[:3])
        latent = reply = 4 * patch.data.size
    sent = bridge.HEADER_SIZE + _EVAL_HEAD + len(condition.data) + latent
    return cells, sent, bridge.HEADER_SIZE + reply


class TracedProvider(VectorFieldProvider):
    """Delegating provider that records one span per evaluation."""

    def __init__(self, inner: VectorFieldProvider, tracer: Tracer):
        self.concurrent_safe = inner.concurrent_safe
        self.evaluate = tracer.wrap("flowcore.provider", inner.evaluate, _provider_size)


def _max_overlap(spans: list[Span]) -> int:
    """Most spans open at one instant."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    best = current = 0
    for _, step in events:
        current += step
        best = max(best, current)
    return best


def _merge_name(args) -> str:
    first = next(iter(args[0].values()), None)
    return "patchwork.merge_sparse" if isinstance(first, SparseLatent) else "patchwork.merge_dense"


def _rows(args, result) -> int:
    return len(result)


def _built_rows(args, result) -> int:
    return len(args[0].coords)


def _euler_steps(args, result) -> int:
    return len(args[1]) - 1


def _xlt_size(array) -> int:
    """XLT1 file size: magic, rank, one u32 per dimension, float32 payload."""
    array = np.asarray(array)
    return len(tensorio.MAGIC) + 4 + 4 * array.ndim + 4 * array.size


# (owner, attribute, span name, size function).  Every place a caller looks
# a function up is listed, so each call is wrapped exactly once.
_TARGETS = [
    (pipeline, "run_pipeline", "pipeline.run", None),
    (pipeline, "generate_sparse_structure", "pipeline.structure", None),
    (pipeline, "generate_slat", "pipeline.features", None),
    (pipeline, "extended_field", "flowcore.field", None),
    (pipeline, "euler_integrate", "flowcore.euler", _euler_steps),
    (structedit, "extended_field", "flowcore.field", None),
    (structedit, "mixed_field", "flowcore.field", None),
    (structedit, "euler_integrate", "flowcore.euler", _euler_steps),
    (flowcore, "extended_field", "flowcore.field", None),
    (flowcore, "dilated_field", "flowcore.field", None),
    (flowcore, "mixed_field", "flowcore.field", None),
    (flowcore, "patch_sparse", "patchwork.gather_sparse", _rows),
    (patchwork, "patch_sparse", "patchwork.gather_sparse", _rows),
    (flowcore, "patch_dense", "patchwork.gather_dense", None),
    (flowcore, "merge_vectors", _merge_name, None),
    (structedit, "dilated_partition", "patchwork.dilated_partition", None),
    (patchwork.DilatedPartition, "gather", "patchwork.dilated_gather", None),
    (patchwork.DilatedPartition, "scatter", "patchwork.dilated_scatter", None),
    (lattice.SparseLatent, "__post_init__", "lattice.sparse_build", _built_rows),
    (structedit, "sdedit_round", "structedit.round", None),
    (structedit, "under_noise", "structedit.under_noise", None),
    (structedit.ToyCodec, "encode", "structedit.codec", None),
    (structedit.ToyCodec, "decode_occupancy", "structedit.codec", None),
    (pipeline, "optimize_vector", "optim.adam", None),
    (pipeline, "ss_loss", "optim.ss_loss", None),
    (pipeline, "slat_objective", "optim.slat_objective", None),
    (optim, "ssim_with_grad", "optim.ssim", None),
    (pipeline, "decode_scene_sdf", "decode.sdf", None),
    (decode, "merge_sdf_patches", "decode.sdf_merge", None),
    (pipeline, "export_ply", "decode.ply", lambda args, result: len(result)),
    (tensorio, "write_tensor", "tensorio.write", lambda args, result: _xlt_size(args[1])),
]


@contextmanager
def instrument(tracer: Tracer, missing: set | None = None):
    """Install the span wrappers for the duration of the block.

    A target the library no longer has is skipped and its
    `owner.attribute` name added to `missing`, so a later refactor
    loses that span instead of breaking the traced run.
    """
    saved = []
    try:
        for owner, attr, name, size in _TARGETS:
            original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
            if original is None:
                if missing is not None:
                    missing.add(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out[s.id] = s.duration - covered
    return out


def scene_metrics(spans: list[Span], server_eval_s: float | None) -> dict:
    """Per-layer metrics of one traced scene.

    Times are summed over calls (provider time on worker threads is
    summed across threads); `pipeline.export_s` is the `run_pipeline`
    time outside the two stages.  Bridge metrics exist only when the
    provider is remote (`server_eval_s` given).
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def count(name):
        return len(by[name])

    def size(name):
        return sum(s.size for s in by[name])

    selfs = self_times(spans)
    field_ids = {s.id for s in by["flowcore.field"]}
    m = {
        "pipeline.structure_s": total("pipeline.structure"),
        "pipeline.features_s": total("pipeline.features"),
        "flowcore.field_calls": count("flowcore.field"),
        "flowcore.field_s": sum(s.duration for s in by["flowcore.field"] if s.parent not in field_ids),
        "flowcore.field_self_s": sum(selfs[s.id] for s in by["flowcore.field"]),
        "flowcore.provider_evals": count("flowcore.provider"),
        "flowcore.provider_s": total("flowcore.provider"),
        "flowcore.provider_cells": sum(s.size[0] for s in by["flowcore.provider"] if s.ok),
        "flowcore.euler_steps": size("flowcore.euler"),
        "patchwork.gather_sparse_calls": count("patchwork.gather_sparse"),
        "patchwork.gather_sparse_s": total("patchwork.gather_sparse"),
        "patchwork.gather_sparse_rows": size("patchwork.gather_sparse"),
        "patchwork.gather_dense_calls": count("patchwork.gather_dense"),
        "patchwork.gather_dense_s": total("patchwork.gather_dense"),
        "patchwork.merge_sparse_s": total("patchwork.merge_sparse"),
        "patchwork.merge_dense_s": total("patchwork.merge_dense"),
        "patchwork.dilated_partition_s": total("patchwork.dilated_partition"),
        "patchwork.dilated_gather_s": total("patchwork.dilated_gather"),
        "patchwork.dilated_scatter_s": total("patchwork.dilated_scatter"),
        "lattice.sparse_builds": count("lattice.sparse_build"),
        "lattice.sparse_build_rows": size("lattice.sparse_build"),
        "lattice.sparse_build_s": total("lattice.sparse_build"),
        "structedit.rounds": count("structedit.round"),
        "structedit.round_s": total("structedit.round"),
        "structedit.codec_s": total("structedit.codec"),
        "structedit.under_noise_s": total("structedit.under_noise"),
        "optim.adam_calls": count("optim.adam"),
        "optim.adam_s": total("optim.adam"),
        "optim.objective_evals": count("optim.ss_loss") + count("optim.slat_objective"),
        "optim.ss_loss_s": total("optim.ss_loss"),
        "optim.slat_objective_s": total("optim.slat_objective"),
        "optim.ssim_s": total("optim.ssim"),
        "decode.sdf_s": total("decode.sdf"),
        "decode.sdf_merge_s": total("decode.sdf_merge"),
        "decode.ply_s": total("decode.ply"),
        "decode.ply_bytes": size("decode.ply"),
        "tensorio.write_s": total("tensorio.write"),
        "tensorio.write_bytes": size("tensorio.write"),
    }
    if by["pipeline.run"]:
        m["pipeline.export_s"] = total("pipeline.run") - m["pipeline.structure_s"] - m["pipeline.features_s"]
    if server_eval_s is not None:
        requests = by["flowcore.provider"]
        ms = sorted(1000.0 * s.duration for s in requests)
        client_s = m["flowcore.provider_s"]
        m.update({
            "bridge.requests": len(ms),
            "bridge.request_ms.p50": _percentile(ms, 50),
            "bridge.request_ms.p99": _percentile(ms, 99),
            "bridge.client_s": client_s,
            "bridge.server_eval_s": server_eval_s,
            "bridge.wire_s": client_s - server_eval_s,
            "bridge.bytes_sent": sum(s.size[1] for s in requests if s.ok),
            "bridge.bytes_received": sum(s.size[2] for s in requests if s.ok),
            "bridge.in_flight_max": _max_overlap(requests),
            "bridge.errors": sum(not s.ok for s in requests),
        })
    return m


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(np.percentile(sorted_values, q))


COMPUTED_UNITS = {
    "flowcore.provider_cells": "cells_computed",
    "tensorio.write_bytes": "bytes_computed",
    "bridge.bytes_sent": "bytes_computed",
    "bridge.bytes_received": "bytes_computed",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; computed (not measured) sizes say so."""
    if name in COMPUTED_UNITS:
        return COMPUTED_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".request_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def is_exact_count(name: str) -> bool:
    """Counts that must repeat exactly for a workload, whatever the seed.

    The in-flight high-water mark depends on thread timing and is not one.
    """
    return layer_unit(name) not in ("s", "ms") and name != "bridge.in_flight_max"
