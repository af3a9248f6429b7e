#!/usr/bin/env python3
"""Serving vector-field evaluations to the engine over the wire.

Starts a loopback XFP1 server wrapping the oracle provider, points the
engine's remote provider at it, and checks that the remotely evaluated
patch-wise fields, dense and sparse, are bit-identical to the in-process
ones.  The server's provider counts the batch calls and windows it
answers, so the demo reports how the windows reached it: with a stage
session, each field's windows arrive as one batch, through the served
provider's `evaluate_windows`.  The server merges them and replies with
the merged field, one value per voxel and channel; the demo prints that
reply's size beside the size of every window's vector in window order,
the reply it replaces.
"""

from tiledflow.bridge import ProviderServer, RemoteProvider
from tiledflow.fixtures import build_demo_scene
from tiledflow.flowcore import GlobalOracleProvider, OracleConditioner, VectorFieldProvider, extended_field
from tiledflow.lattice import init_sparse_noise, sample_gaussian
from tiledflow.patchwork import make_patch_grid


class CountingProvider(VectorFieldProvider):
    """Counts the batch calls and windows the server's provider answers."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = self.windows = 0

    def evaluate_batch(self, batch, conditions, t):
        self.calls += 1
        self.windows += len(batch)
        return self.inner.evaluate_batch(batch, conditions, t)


class ReplyMeter(VectorFieldProvider):
    """Passes window fields to the remote provider and keeps the last
    reply (the merged field, viewed over the received payload) and its
    layout."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate_windows(self, Z, layout, conditions, t):
        self.layout = layout
        self.reply = self.inner.evaluate_windows(Z, layout, conditions, t)
        return self.reply


scene = build_demo_scene()
dims = scene.dims
oracle = GlobalOracleProvider(ss_target=scene.ss_target, slat_target=scene.slat_target)
served = CountingProvider(oracle)
conditioner = OracleConditioner()
fields = {
    "dense": (sample_gaussian(dims, seed=3), make_patch_grid(dims, d=4, K=dims.N)),
    "sparse": (init_sparse_noise(scene.slat_target.coords, dims, seed=4), make_patch_grid(dims, d=4, K=dims.M)),
}

identical = True
with ProviderServer(served, dims) as server:
    print(f"oracle server listening on {server.address}")
    with RemoteProvider(server.address, timeout=10) as remote:
        meter = ReplyMeter(remote)
        for kind, (Z, grid) in fields.items():
            local_field = extended_field(Z, 0.6, grid, oracle, conditioner)
            served.calls = served.windows = 0
            remote_field = extended_field(Z, 0.6, grid, meter, conditioner)
            identical &= local_field.values.tobytes() == remote_field.values.tobytes()
            print(
                f"{kind} field: the server evaluated {served.windows} of {grid.count} windows "
                f"in {served.calls} batch call(s)"
            )
            reply_bytes = meter.reply.values.nbytes
            window_order_bytes = meter.layout.window_order(meter.reply.values).nbytes
            print(
                f"{kind} field: reply of {reply_bytes:,} bytes in place of {window_order_bytes:,} "
                f"bytes in window order ({window_order_bytes / reply_bytes:.1f}x)"
            )
print(f"remote dense and sparse fields bit-identical to in-process: {identical}")
