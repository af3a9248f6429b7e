"""End-to-end scene generation: structure, features, decode, export.

The run takes a scene prior, voxelizes its point cloud, completes the
structure with iterative under-noised editing (structure-loss
optimization at every step), denoises per-voxel features over the
resulting coordinates (rendering-loss optimization at every step), and
exports a colored point cloud, a merged SDF, and a JSON run report.

Configuration is a flat JSON object using exactly the PipelineConfig
field names; unknown keys are rejected.  A single master seed feeds
fixed substreams (structure noise, feature init, pillar shuffles), so a
run is bit-reproducible.  The `workers` field is still accepted and
checked, but the engine no longer reads it: every field is one provider
call, made on the calling thread.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from os import PathLike
from pathlib import Path

import numpy as np

from . import tensorio
from .decode import decode_scene_sdf, export_ply
from .errors import BoundsError, ConfigError, DimensionError, ParseError
from .flowcore import (
    Conditioner,
    GlobalOracleProvider,
    ImageConditioner,
    OracleConditioner,
    VectorFieldProvider,
    extended_field,
    euler_integrate,
)
from .lattice import DenseLatent, Dims, OccupancyGrid, Schedule, SparseLatent, init_sparse_noise
from .optim import (
    AdamParams,
    LossWeights,
    PriorCells,
    RenderTarget,
    StepObjective,
    is_finite_real,
    optimize_vector,
    slat_objective,
    ss_loss,
)
from .patchwork import SparseWindowPlan, make_patch_grid
from .priors import NormalizationBox, ScenePrior, load_scene_prior, voxelize
from .structedit import ToyCodec, iterative_sdedit

# Substream tags for deriving per-purpose generators from the master seed.
# The structure stream also feeds the per-step pillar shuffles.
_STREAM_SS_NOISE = 1
_STREAM_SLAT_INIT = 2


def substream_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0])


@dataclass
class PipelineConfig:
    dims: Dims = field(default_factory=Dims)
    d: int = 4
    t_start: float = 0.8
    t_noise: float = 0.6
    n_iter: int = 2
    schedule_steps: int = 25
    alpha: int = 5
    ss_adam: AdamParams = field(default_factory=AdamParams)
    slat_adam: AdamParams = field(default_factory=AdamParams)
    dilated_enabled: bool = True
    provider: str = "builtin-oracle"
    conditioner: str = "window"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    workers: int = 1  # checked, but no longer read: the engine runs no threads
    optimize_every_round: bool = True
    oracle_ss_target: str | None = None
    oracle_slat_target: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        for name, cls in _NESTED_FIELDS.items():
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        for name, floor in _INT_FLOORS.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
        for name, kinds in _STR_FIELDS.items():
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in _REAL_FIELDS:
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite real number, got {getattr(self, name)!r}")
        if self.dims.N % self.d != 0 or self.dims.M % self.d != 0:
            raise ConfigError(f"d={self.d} must divide N={self.dims.N} and M={self.dims.M}")
        if not 0.0 < self.t_start <= 1.0 or not 0.0 <= self.t_noise <= self.t_start:
            raise ConfigError(
                f"need 0 < t_start <= 1 and 0 <= t_noise <= t_start, "
                f"got t_start={self.t_start}, t_noise={self.t_noise}"
            )
        if self.alpha % 2 == 0:
            raise ConfigError(f"alpha must be an odd positive integer, got {self.alpha}")
        if self.conditioner not in ("window", "image"):
            raise ConfigError(f"conditioner must be 'window' or 'image', got {self.conditioner!r}")
        if not (self.provider == "builtin-oracle" or self.provider.startswith("remote:")):
            raise ConfigError(
                f"provider must be 'builtin-oracle' or 'remote:HOST:PORT', got {self.provider!r}"
            )
        if self.provider == "builtin-oracle" and self.conditioner != "window":
            raise ConfigError("the builtin oracle requires the 'window' conditioner")


# The integer fields and their least values; the string fields and
# whether they may be null; the bool fields; the float fields; the
# nested fields and their classes, which `config_from_dict` builds.
_INT_FLOORS = {"d": 1, "n_iter": 0, "schedule_steps": 2, "alpha": 1, "seed": 0, "workers": 1}
_STR_FIELDS = {
    "provider": str,
    "conditioner": str,
    "oracle_ss_target": (str, type(None)),
    "oracle_slat_target": (str, type(None)),
    "out_dir": (str, type(None)),
}
_BOOL_FIELDS = ("dilated_enabled", "optimize_every_round")
_REAL_FIELDS = ("t_start", "t_noise")

_NESTED_FIELDS = {"dims": Dims, "ss_adam": AdamParams, "slat_adam": AdamParams, "loss_weights": LossWeights}


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a config from a JSON object; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key in _NESTED_FIELDS:
            cls = _NESTED_FIELDS[key]
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            bad = set(value) - {f.name for f in fields(cls)}
            if bad:
                raise ConfigError(f"unknown keys in {key!r}: {sorted(bad)}")
            try:
                kwargs[key] = cls(**value)
            except (ValueError, TypeError, DimensionError) as exc:
                raise ConfigError(f"invalid {key!r}: {exc}") from exc
        else:
            kwargs[key] = value
    try:
        return PipelineConfig(**kwargs)
    except (ValueError, TypeError, DimensionError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str | PathLike) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(raw)


@dataclass
class RunReport:
    """What a run did, written as its `report.json`.

    `stages` holds one entry per stage: its name, seconds and counts.  A
    stage's seconds run from the end of the report's previous stage, or
    from the report's creation, to its own end, so the stages account
    for the whole run.  `losses` maps a stage name to one
    `{"t": t, "loss": [...]}` entry per optimized Euler step, in step
    order, holding the Adam loss trace of that step.
    """

    stages: list = field(default_factory=list)
    round_occupancy: list = field(default_factory=list)
    asset_paths: dict = field(default_factory=dict)
    empty_windows: list = field(default_factory=list)
    losses: dict = field(default_factory=dict)

    def __post_init__(self):
        self._stage_start = time.monotonic()  # not a field, so not in the report

    def add_stage(self, name: str, **detail):
        """Close the running stage as `name`, with `detail` counts."""
        now = time.monotonic()
        self.stages.append({"name": name, "seconds": round(now - self._stage_start, 6), **detail})
        self._stage_start = now

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class ProviderBundle:
    """A provider plus how to condition it, with optional teardown."""

    provider: VectorFieldProvider
    conditioner_kind: str
    closer: object = None

    def close(self):
        if self.closer is not None:
            self.closer()


def build_provider(config: PipelineConfig) -> ProviderBundle:
    """Construct the configured provider (oracle targets come from files)."""
    if config.provider == "builtin-oracle":
        oracle = load_oracle(config.dims, config.oracle_ss_target, config.oracle_slat_target)
        if oracle is None:
            raise ConfigError("builtin-oracle needs oracle_ss_target and/or oracle_slat_target")
        return ProviderBundle(oracle, config.conditioner)
    endpoint = config.provider.split(":", 1)[1]
    from .bridge import RemoteProvider  # imported lazily; bridge depends on flowcore

    remote = RemoteProvider(endpoint)
    return ProviderBundle(remote, config.conditioner, closer=remote.close)


def load_oracle(dims: Dims, ss_path, slat_path) -> GlobalOracleProvider | None:
    """The builtin oracle over the dense and/or sparse target files given
    (XLT1 tensor, sparse latent table); None when neither is."""
    if not ss_path and not slat_path:
        return None
    return GlobalOracleProvider(
        ss_target=DenseLatent(dims, tensorio.read_tensor(ss_path)) if ss_path else None,
        slat_target=read_slat_table(slat_path, dims) if slat_path else None,
    )


def read_slat_table(path: str | PathLike, dims: Dims) -> SparseLatent:
    """Sparse latents persist as rank-2 XLT1 tables: x, y, z, then l features."""
    table = tensorio.read_tensor(path)
    if table.ndim != 2 or table.shape[1] != 3 + dims.l:
        raise ConfigError(
            f"sparse latent table must be (n, {3 + dims.l}), got {table.shape}"
        )
    try:
        return SparseLatent(dims, table[:, :3], table[:, 3:])
    except (BoundsError, ValueError) as exc:  # a bad coordinate or feature, or a repeated coordinate
        raise ParseError(f"{path}: {exc}") from exc


def write_slat_table(path: str | PathLike, slat: SparseLatent) -> None:
    table = np.concatenate(
        [slat.coords.astype(np.float32), slat.features.astype(np.float32)], axis=1
    )
    tensorio.write_tensor(path, table)


def _make_conditioner(kind: str, prior: ScenePrior, grid, box: NormalizationBox) -> Conditioner:
    if kind == "window":
        return OracleConditioner()
    return ImageConditioner(prior, grid, box)


def _resample_nn(image: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h, w = image.shape[:2]
    rows = (np.arange(shape[0]) * h) // shape[0]
    cols = (np.arange(shape[1]) * w) // shape[1]
    return image[rows][:, cols]


def _scene_box(prior: ScenePrior) -> NormalizationBox:
    """The normalization box of the prior's valid points."""
    points = prior.valid_points()
    if len(points) == 0:
        raise ConfigError("prior has no valid points to build a scene box from")
    return NormalizationBox.from_points(points)


def _record_empty_windows(report: RunReport, stage: str, conditioner: Conditioner):
    """Record the stage's windows whose image cut held no valid pixel
    and that took the whole-image condition instead."""
    if isinstance(conditioner, ImageConditioner):
        report.empty_windows.extend(
            {"stage": stage, "window": list(k)} for k in conditioner.empty_windows
        )


def _adam_hook(loss, bind, params: AdamParams, steps: list):
    """Per-step hook: Adam on the support of the step's objective.

    `bind(Z, t)` does once per step what the objective keeps fixed
    within it; the binding's `index` selects the support in the step
    vector's `values` and its `classes` the entries that share a
    gradient.  Adam runs on `v.values[index]` against `loss(u, Z, t,
    bound)`, one moment per class (see `optim`).  The entries outside
    keep their bits: the objective has no gradient there, and an Adam
    step on a zero gradient from zero moments moves nothing.  Each
    step's t and loss trace are appended to `steps`.
    """

    def hook(v, Z, t):
        bound = bind(Z, t)
        u_opt, losses = optimize_vector(v.values[bound.index], StepObjective(loss, Z, t, bound), params)
        steps.append({"t": float(t), "loss": losses})
        out = v.values.copy()
        out[bound.index] = u_opt
        return v.with_values(out)

    return hook


def generate_sparse_structure(
    prior: ScenePrior,
    config: PipelineConfig,
    bundle: ProviderBundle,
    report: RunReport | None = None,
    box: NormalizationBox | None = None,
) -> np.ndarray:
    """Structure stage: voxelize the prior and complete it by iterative
    under-noised editing with per-step structure-loss optimization,
    recorded into `report` (a fresh one when not given)."""
    report = report or RunReport()
    dims = config.dims
    points = prior.valid_points()
    box = box or _scene_box(prior)
    occ0 = voxelize(points, box, dims)
    prior_voxels = box.to_voxels(points, dims)

    grid = make_patch_grid(dims, config.d, dims.N)
    conditioner = _make_conditioner(bundle.conditioner_kind, prior, grid, box)
    codec = ToyCodec(dims)
    schedule = Schedule.linear(config.t_start, config.schedule_steps)
    steps = report.losses.setdefault("sparse_structure", [])

    hook_for_round = None
    if config.ss_adam.steps > 0 and len(prior_voxels) > 0:
        prior_cells = PriorCells.build(prior_voxels, codec.dims)
        hook = _adam_hook(
            lambda u, Z, t, cells: ss_loss(u, Z, t, cells, codec), prior_cells.at, config.ss_adam, steps
        )

        def hook_for_round(round_idx: int):
            if config.optimize_every_round or round_idx == config.n_iter - 1:
                return hook
            return None

    def on_round(n, occ):
        report.round_occupancy.append({"round": n, "occupied": occ.count()})

    coords = iterative_sdedit(
        occ0,
        config.t_noise,
        config.n_iter,
        schedule,
        bundle.provider,
        conditioner,
        grid,
        codec,
        seed=substream_seed(config.seed, _STREAM_SS_NOISE),
        hook_for_round=hook_for_round,
        dilated_alpha=config.alpha if config.dilated_enabled else None,
        on_round=on_round,
    )
    report.add_stage(
        "sparse_structure",
        prior_points=int(len(points)),
        initial_occupied=occ0.count(),
        final_occupied=int(len(coords)),
    )
    _record_empty_windows(report, "ss", conditioner)
    return coords


def generate_slat(
    coords: np.ndarray,
    prior: ScenePrior,
    config: PipelineConfig,
    bundle: ProviderBundle,
    report: RunReport | None = None,
    box: NormalizationBox | None = None,
) -> SparseLatent:
    """Feature stage: denoise per-voxel features over fixed coordinates,
    optimizing the rendering objective at every step.

    The window plan of the fine grid and the coordinates is built once,
    here, and cuts every step's field.  The stage is recorded into
    `report` (a fresh one when not given).
    """
    if len(coords) == 0:
        raise ConfigError("feature stage requires a non-empty coordinate set")
    report = report or RunReport()
    dims = config.dims
    box = box or _scene_box(prior)
    grid = make_patch_grid(dims, config.d, dims.M)
    # first, so the plan's temporaries do not add to the latent's at the peak
    plan = SparseWindowPlan(grid, coords)
    conditioner = _make_conditioner(bundle.conditioner_kind, prior, grid, box)
    schedule = Schedule.linear(1.0, config.schedule_steps)
    # drawn on the plan's own coordinate array, so every step's
    # `extended_field` knows the latent's coordinates without a compare
    Z1 = init_sparse_noise(plan.coords, dims, substream_seed(config.seed, _STREAM_SLAT_INIT))
    steps = report.losses.setdefault("structured_latent", [])

    hook = None
    if config.slat_adam.steps > 0:
        target = RenderTarget.build(
            dims,
            Z1.coords,
            _resample_nn(prior.image.astype(np.float64), (dims.a * dims.M, dims.b * dims.M)),
        )
        hook = _adam_hook(
            lambda u, Z, t, bound: slat_objective(u, Z, t, bound, config.loss_weights),
            target.at,
            config.slat_adam,
            steps,
        )

    def field_fn(Z, t):
        return extended_field(Z, t, grid, bundle.provider, conditioner, plan)

    Z0 = euler_integrate(Z1, schedule, field_fn, hook)
    report.add_stage("structured_latent", coordinates=int(len(coords)))
    _record_empty_windows(report, "slat", conditioner)
    return Z0


def generate_scene(prior_path: str | PathLike, config: PipelineConfig) -> RunReport:
    """Full pipeline from an SPR1 prior file to exported assets."""
    prior = load_scene_prior(prior_path)
    bundle = build_provider(config)
    try:
        return run_pipeline(prior, config, bundle)
    finally:
        bundle.close()


def run_pipeline(prior: ScenePrior, config: PipelineConfig, bundle: ProviderBundle) -> RunReport:
    """Both stages, then decoding and export into `config.out_dir`.

    The report's stages account for the run up to writing `report.json`:
    each stage's seconds include the set-up before it.
    """
    report = RunReport()
    if not config.out_dir:
        raise ConfigError("out_dir must be set to export assets")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    box = _scene_box(prior)

    coords = generate_sparse_structure(prior, config, bundle, report, box)
    slat = generate_slat(coords, prior, config, bundle, report, box)

    occupancy = OccupancyGrid.from_coords(config.dims, coords)
    sdf = decode_scene_sdf(slat)

    paths = {
        "scene_ply": out_dir / "scene.ply",
        "occupancy_xlt": out_dir / "occupancy.xlt",
        "sdf_xlt": out_dir / "sdf.xlt",
        "slat_xlt": out_dir / "slat.xlt",
    }
    paths["scene_ply"].write_bytes(export_ply(slat, with_colors=True))
    tensorio.write_tensor(paths["occupancy_xlt"], occupancy.occupied.astype(np.float32))
    tensorio.write_tensor(paths["sdf_xlt"], sdf.data)
    write_slat_table(paths["slat_xlt"], slat)
    report.asset_paths = {k: str(v) for k, v in paths.items()}
    report.add_stage("decode_export")
    (out_dir / "report.json").write_text(report.to_json())
    return report
