"""tiledflow: tiled flow sampling over extended 3D latents.

A numpy library for generating wide 3D scenes with a fixed-size
flow-model backbone: the latent lattice is extended along x and y,
denoised patch-by-patch with overlapping sliding windows, initialized
from a voxelized point-cloud prior, completed by iterative under-noised
editing, and steered per timestep by gradient-based vector optimization.
Pluggable vector-field providers (closed-form oracles, remote backends
over a framed wire protocol) make the full pipeline executable and
verifiable without any pretrained network.

`__all__` is the public surface: the names that the README, the demos,
the CLI, the benchmark and the acceptance tests import, plus the error
hierarchy that callers catch.  Every other name stays importable from
its own module.
"""

from . import bridge, decode, fixtures, flowcore, lattice, optim, patchwork, pipeline, structedit, tensorio
from .bridge import (
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    EvalRequest,
    Frame,
    ProviderServer,
    RemoteProvider,
    decode_frame,
    encode_eval_request,
    encode_frame,
    serve_provider,
)
from .decode import CosineWeightField, merge_sdf_patches
from .errors import (
    BoundsError,
    ConfigError,
    CoverageError,
    DimensionError,
    DivergenceError,
    IncompleteFrameError,
    OptimizationError,
    ParseError,
    ProtocolError,
    ProviderError,
    SingularityError,
    TiledFlowError,
)
from .fixtures import (
    build_cavity_fixture,
    build_demo_scene,
    cavity_recall,
    demo_bundle,
    demo_config,
    run_oracle_demo,
)
from .flowcore import (
    GlobalOracleProvider,
    OracleConditioner,
    VectorFieldProvider,
    euler_integrate,
    extended_field,
    gamma,
)
from .lattice import (
    DenseLatent,
    Dims,
    OccupancyGrid,
    Schedule,
    SparseLatent,
    init_sparse_noise,
    sample_gaussian,
)
from .optim import AdamParams, LossWeights, optimize_vector, slat_objective, ss_loss, ssim_with_grad
from .patchwork import dilated_partition, make_patch_grid, merge_vectors, patch_dense, patch_sparse
from .pipeline import (
    PipelineConfig,
    ProviderBundle,
    generate_scene,
    load_config,
    load_oracle,
    read_slat_table,
    run_pipeline,
)
from .priors import NormalizationBox, read_ply_points, voxelize
from .structedit import ToyCodec

__all__ = [
    "bridge", "decode", "fixtures", "flowcore", "lattice", "optim", "patchwork", "pipeline",
    "structedit", "tensorio",
    "TYPE_ERROR", "TYPE_REQUEST", "TYPE_RESPONSE", "EvalRequest", "Frame", "ProviderServer",
    "RemoteProvider", "decode_frame", "encode_eval_request", "encode_frame", "serve_provider",
    "CosineWeightField", "merge_sdf_patches",
    "BoundsError", "ConfigError", "CoverageError", "DimensionError", "DivergenceError",
    "IncompleteFrameError", "OptimizationError", "ParseError", "ProtocolError", "ProviderError",
    "SingularityError", "TiledFlowError",
    "build_cavity_fixture", "build_demo_scene", "cavity_recall", "demo_bundle", "demo_config",
    "run_oracle_demo",
    "GlobalOracleProvider", "OracleConditioner", "VectorFieldProvider", "euler_integrate",
    "extended_field", "gamma",
    "DenseLatent", "Dims", "OccupancyGrid", "Schedule", "SparseLatent", "init_sparse_noise",
    "sample_gaussian",
    "AdamParams", "LossWeights", "optimize_vector", "slat_objective", "ss_loss", "ssim_with_grad",
    "dilated_partition", "make_patch_grid", "merge_vectors", "patch_dense", "patch_sparse",
    "PipelineConfig", "ProviderBundle", "generate_scene", "load_config", "load_oracle",
    "read_slat_table", "run_pipeline",
    "NormalizationBox", "read_ply_points", "voxelize",
    "ToyCodec",
]

__version__ = "0.1.0"
