"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import tensorio
from .errors import ConfigError, DimensionError, TiledFlowError
from .lattice import Dims
from .pipeline import PipelineConfig, generate_scene, load_config, load_oracle
from .priors import NormalizationBox, read_ply_points, voxelize


def _parse_dims(text: str) -> Dims:
    try:
        parts = [int(v) for v in text.split(",")]
        if len(parts) not in (4, 6):
            raise ValueError("expected a,b,N,M or a,b,N,M,C,l")
        return Dims(*parts)
    except (ValueError, DimensionError) as exc:
        raise ConfigError(f"--dims {text!r}: {exc}") from exc


def _cmd_generate(args) -> int:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if overrides:
        config = replace(config, **overrides)
    report = generate_scene(args.prior, config)
    print(report.to_json())
    return 0


def _cmd_voxelize(args) -> int:
    dims = _parse_dims(args.dims)
    points, _ = read_ply_points(args.cloud)
    if len(points) == 0:
        raise ConfigError(f"{args.cloud} contains no vertices")
    box = NormalizationBox.from_points(points)
    grid = voxelize(points, box, dims)
    tensorio.write_tensor(args.out, grid.occupied.astype(np.float32))
    print(f"voxelized {len(points)} points into {grid.count()} occupied cells -> {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    array = tensorio.read_tensor(args.file)
    stats = {"shape": list(array.shape), "dtype": str(array.dtype)}
    with np.errstate(invalid="ignore", over="ignore"):
        for name in ("min", "max", "mean", "std"):
            value = float(getattr(array, name)()) if array.size else math.nan
            # JSON has no NaN or inf: an undefined or infinite stat is null
            stats[name] = value if math.isfinite(value) else None
    stats["finite"] = bool(np.isfinite(array).all())
    print(json.dumps(stats, indent=2, allow_nan=False))
    return 0


def _cmd_serve_oracle(args) -> int:
    from .bridge import serve_provider

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    dims = _parse_dims(args.dims)
    provider = load_oracle(dims, args.target, args.slat_target)
    if provider is None:
        raise ConfigError("serve-oracle needs --target and/or --slat-target")
    serve_provider(provider, args.listen, dims, workers=args.workers)
    return 0


def _cmd_oracle_demo(args) -> int:
    from .fixtures import run_oracle_demo

    out_dir = args.out or "oracle-demo-out"
    report, _ = run_oracle_demo(out_dir, seed=args.seed, exact=args.exact)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiledflow",
        description="Tiled flow sampling over extended 3D latents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run the full pipeline on a scene prior")
    p.add_argument("prior", help="SPR1 scene prior file")
    p.add_argument("--config", help="JSON pipeline configuration")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("voxelize", help="voxelize a PLY point cloud to an occupancy tensor")
    p.add_argument("cloud", help="ASCII PLY point cloud")
    p.add_argument("--dims", required=True, help="a,b,N,M[,C,l]")
    p.add_argument("--out", required=True, help="output XLT1 path")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("inspect", help="print shape and statistics of an XLT1 tensor")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("serve-oracle", help="serve oracle field evaluations over XFP1")
    p.add_argument("--target", help="dense target XLT1 (structure stage)")
    p.add_argument("--slat-target", help="sparse target table XLT1 (feature stage)")
    p.add_argument("--listen", required=True, help="host:port to bind")
    p.add_argument("--dims", required=True, help="a,b,N,M[,C,l] of the extended lattice")
    p.add_argument("--workers", type=int, default=8, help="server worker threads")
    p.set_defaults(func=_cmd_serve_oracle)

    p = sub.add_parser("oracle-demo", help="self-contained end-to-end fixture run")
    p.add_argument("--out", help="output directory (default oracle-demo-out)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="disable per-step optimization for exact oracle reconstruction")
    p.set_defaults(func=_cmd_oracle_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TiledFlowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
