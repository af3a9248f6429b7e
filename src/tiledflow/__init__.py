"""tiledflow: tiled flow sampling over extended 3D latents.

A numpy library for generating wide 3D scenes with a fixed-size
flow-model backbone: the latent lattice is extended along x and y,
denoised patch-by-patch with overlapping sliding windows, initialized
from a voxelized point-cloud prior, completed by iterative under-noised
editing, and steered per timestep by gradient-based vector optimization.
Pluggable vector-field providers (closed-form oracles, remote backends
over a framed wire protocol) make the full pipeline executable and
verifiable without any pretrained network.
"""

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
from .lattice import (
    DenseLatent,
    Dims,
    OccupancyGrid,
    Schedule,
    SparseLatent,
    init_sparse_noise,
    lerp_latent,
    sample_gaussian,
)
from .patchwork import (
    DilatedPartition,
    PatchGrid,
    Window,
    dilated_partition,
    make_patch_grid,
    merge_vectors,
    patch_dense,
    patch_sparse,
    unpatch_dense,
)
from .flowcore import (
    BiasedOracleProvider,
    GlobalOracleProvider,
    ImageConditioner,
    OracleConditioner,
    OracleField,
    VectorFieldProvider,
    ZeroFieldProvider,
    euler_integrate,
    extended_field,
    gamma,
    mixed_field,
)
from .structedit import ToyCodec, iterative_sdedit, sdedit_round, under_noise
from .priors import (
    ConditionEmbedding,
    NormalizationBox,
    ScenePrior,
    image_patchify,
    load_scene_prior,
    toy_condition,
    voxelize,
    write_scene_prior,
)
from .optim import (
    AdamParams,
    LossWeights,
    OptimState,
    adam_step,
    optimize_vector,
    projection_render,
    slat_objective,
    ss_loss,
    ssim,
    ssim_with_grad,
)
from .decode import (
    CosineWeightField,
    SdfGrid,
    decode_scene_sdf,
    export_ply,
    merge_sdf_patches,
    toy_decode_sdf,
)
from .pipeline import (
    PipelineConfig,
    ProviderBundle,
    RunReport,
    config_from_dict,
    generate_scene,
    generate_slat,
    generate_sparse_structure,
    load_config,
    run_pipeline,
)

__version__ = "0.1.0"
