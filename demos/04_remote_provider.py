#!/usr/bin/env python3
"""Serving vector-field evaluations to the engine over the wire.

Starts a loopback XFP1 server wrapping the oracle provider, points the
engine's remote provider at it, and checks that the remotely evaluated
patch-wise field is bit-identical to the in-process one.
"""

import numpy as np

from tiledflow.bridge import ProviderServer, RemoteProvider
from tiledflow.fixtures import build_demo_scene
from tiledflow.flowcore import GlobalOracleProvider, OracleConditioner, extended_field
from tiledflow.lattice import sample_gaussian
from tiledflow.patchwork import make_patch_grid

scene = build_demo_scene()
dims = scene.dims
provider = GlobalOracleProvider(ss_target=scene.ss_target, slat_target=scene.slat_target)

with ProviderServer(provider, dims) as server:
    print(f"oracle server listening on {server.address}")
    remote = RemoteProvider(server.address, timeout=10)

    grid = make_patch_grid(dims, d=4, K=dims.N)
    Z = sample_gaussian(dims, seed=3)
    conditioner = OracleConditioner()

    local_field = extended_field(Z, 0.6, grid, provider, conditioner)
    remote_field = extended_field(Z, 0.6, grid, remote, conditioner, workers=8)

    identical = np.array_equal(
        local_field.data.view(np.uint32), remote_field.data.view(np.uint32)
    )
    print(f"evaluated {grid.count} patches remotely in 8 concurrent batch requests")
    print(f"remote field bit-identical to in-process: {identical}")
    remote.close()
