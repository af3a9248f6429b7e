"""Self-contained synthetic scenes for verification and demos.

The demo scene is block-aligned so the toy codec round-trips it
exactly, and its prior bundle is derived from the scene itself (top
surface points, rendered image), making the whole pipeline exactly
checkable against closed-form oracle fields.  The cavity fixture is a
scene whose solid interior is invisible to the top-down prior; paired
with a rate-limited oracle it measures how noising/denoising levels
affect hidden-region completion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flowcore import BiasedOracleProvider, GlobalOracleProvider, OracleConditioner
from .lattice import DTYPE, DenseLatent, Dims, OccupancyGrid, Schedule, SparseLatent
from .optim import AdamParams, projection_render
from .patchwork import make_patch_grid
from .pipeline import PipelineConfig, ProviderBundle, RunReport, run_pipeline
from .priors import ScenePrior
from .structedit import ToyCodec, iterative_sdedit, upsample_blocks


def _block_scene(a: int, b: int, N: int) -> np.ndarray:
    """Coarse boolean scene: ground slab plus a deterministic skyline."""
    occ = np.zeros((a * N, b * N, N), dtype=bool)
    occ[:, :, 0] = True  # ground
    towers = [
        (1, 1, 3, 3, 3),
        (11, 2, 4, 3, 5),
        (2, 10, 3, 4, 4),
        (9, 9, 5, 5, 2),
        (6, 5, 2, 2, 6),
    ]
    for x0, y0, w, h, height in towers:
        x1 = min(x0 + w, a * N)
        y1 = min(y0 + h, b * N)
        occ[x0:x1, y0:y1, 1 : min(1 + height, N)] = True
    return occ


def _top_surface(occ: np.ndarray) -> np.ndarray:
    """Topmost occupied z per column; -1 where the column is empty."""
    M = occ.shape[2]
    reversed_hit = occ[:, :, ::-1].argmax(axis=2)
    z_top = M - 1 - reversed_hit
    return np.where(occ.any(axis=2), z_top, -1)


@dataclass(frozen=True)
class DemoScene:
    dims: Dims
    occ_target: OccupancyGrid
    ss_target: DenseLatent
    slat_target: SparseLatent
    prior: ScenePrior


def build_demo_scene(dims: Dims | None = None) -> DemoScene:
    """Block-aligned scene plus the prior bundle a depth estimator would
    provide for it (top-surface points, top-down rendered image)."""
    dims = dims or Dims()
    codec = ToyCodec(dims)
    coarse = _block_scene(dims.a, dims.b, dims.N)
    fine = upsample_blocks(coarse, dims.ratio)
    occ_target = OccupancyGrid(dims, fine)
    ss_target = codec.encode(occ_target)

    coords = occ_target.coords()
    aM, bM, M = dims.grid_shape
    feats = np.zeros((len(coords), dims.l), dtype=DTYPE)
    feats[:, 0] = coords[:, 0] / aM
    if dims.l > 1:
        feats[:, 1] = coords[:, 1] / bM
    if dims.l > 2:
        feats[:, 2] = (coords[:, 2] + 0.5) / M
    if dims.l > 3:
        feats[:, 3] = 0.5
    slat_target = SparseLatent(dims, coords, feats)

    image = np.clip(projection_render(slat_target), 0.0, 1.0)
    z_top = _top_surface(fine)
    xs, ys = np.meshgrid(np.arange(aM), np.arange(bM), indexing="ij")
    point_map = np.stack(
        [
            (xs + 0.5) / M,
            (ys + 0.5) / M,
            (np.maximum(z_top, 0) + 0.5) / M,
        ],
        axis=2,
    ).astype(DTYPE)
    valid = z_top >= 0
    camera = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=DTYPE
    )
    prior = ScenePrior(image=image, point_map=point_map, valid=valid, camera=camera)
    return DemoScene(dims, occ_target, ss_target, slat_target, prior)


def demo_bundle(scene: DemoScene) -> ProviderBundle:
    provider = GlobalOracleProvider(ss_target=scene.ss_target, slat_target=scene.slat_target)
    return ProviderBundle(provider, "window")


def demo_config(out_dir: str, seed: int = 0, workers: int = 1, exact: bool = False) -> PipelineConfig:
    """Default demo configuration; `exact` switches optimization off so
    the oracle run reproduces the target bit-for-bit (to float32).
    `workers` only sets `PipelineConfig.workers`, which the engine no
    longer reads."""
    config = PipelineConfig(out_dir=out_dir, seed=seed, workers=workers)
    if exact:
        config = replace(
            config,
            ss_adam=AdamParams(steps=0),
            slat_adam=AdamParams(steps=0),
        )
    return config


def run_oracle_demo(
    out_dir: str,
    seed: int = 0,
    workers: int = 1,
    exact: bool = False,
    dims: Dims | None = None,
) -> tuple[RunReport, DemoScene]:
    """End-to-end pipeline run against the built-in oracle scene;
    `workers` goes to `demo_config`, and changes nothing in the run."""
    scene = build_demo_scene(dims)
    config = demo_config(out_dir, seed=seed, workers=workers, exact=exact)
    if dims is not None:
        config = replace(config, dims=dims)
    report = run_pipeline(scene.prior, config, demo_bundle(scene))
    return report, scene


@dataclass(frozen=True)
class CavityFixture:
    dims: Dims
    occ_prior: OccupancyGrid
    occ_target: OccupancyGrid
    hidden: np.ndarray  # target-solid voxels invisible from above


def build_cavity_fixture(dims: Dims | None = None) -> CavityFixture:
    """A solid structure whose interior is occluded from the top view.

    The prior grid holds only the top-surface shell, so everything
    underneath counts as hidden; completing it requires the editing
    loop rather than the initialization.
    """
    dims = dims or Dims()
    coarse = np.zeros((dims.a * dims.N, dims.b * dims.N, dims.N), dtype=bool)
    coarse[:, :, 0] = True  # ground
    x0 = (dims.a * dims.N) // 3
    y0 = (dims.b * dims.N) // 3
    coarse[x0 : x0 + 6, y0 : y0 + 6, 1:5] = True  # solid block, interior hidden
    fine = upsample_blocks(coarse, dims.ratio)

    z_top = _top_surface(fine)
    shell = np.zeros_like(fine)
    xs, ys = np.nonzero(z_top >= 0)
    shell[xs, ys, z_top[xs, ys]] = True

    hidden = fine & ~shell
    return CavityFixture(
        dims,
        OccupancyGrid(dims, shell),
        OccupancyGrid(dims, fine),
        hidden,
    )


def cavity_recall(
    fixture: CavityFixture,
    t_noise: float,
    t_start: float,
    n_iter: int,
    seed: int,
    d: int = 4,
    schedule_steps: int = 25,
    rate: float = 1.0,
    alpha: int | None = 5,
) -> float:
    """Hidden-region occupancy recall after `n_iter` editing rounds with
    the rate-limited oracle (no per-step optimization).

    Over-noised settings (t_noise > t_start) are accepted: the
    noising-level comparison needs them as a baseline arm.
    """
    n_hidden = int(fixture.hidden.sum())
    if n_hidden == 0:
        raise ValueError("fixture has no hidden region")
    dims = fixture.dims
    codec = ToyCodec(dims)
    coords = iterative_sdedit(
        fixture.occ_prior,
        t_noise,
        n_iter,
        Schedule.linear(t_start, schedule_steps),
        BiasedOracleProvider(codec.encode(fixture.occ_target), rate=rate),
        OracleConditioner(),
        make_patch_grid(dims, d, dims.N),
        codec,
        seed=seed,
        dilated_alpha=alpha,
    )
    occ = OccupancyGrid.from_coords(dims, coords)
    return float((occ.occupied & fixture.hidden).sum() / n_hidden)
