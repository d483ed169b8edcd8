"""Command-line front end.

Subcommands:

* ``price``  - clean value surfaces to CSV
* ``xva``    - XVA triple and regime record to CSV
* ``verify`` - Monte Carlo oracle report to JSON (nonzero exit on violation)
* ``sweep``  - comparative-statics table to CSV

Exit codes: 0 success, 2 configuration error, 3 assumption violation without
the override flag, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .engine import run_engine
from .market import AssumptionError, ConfigError, load_config, read_config
from .oracle import verify
from .reporting import (
    manifest,
    write_clean_csv,
    write_json,
    write_margin_csv,
    write_regime_csv,
    write_sweep_csv,
    write_xva_csv,
)
from .sweeps import SWEEPABLE, SweepSpec, base_value, default_grid, run_sweep
from .xva import all_variants

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_VERIFY = 4

# options besides the config, the seed and the grid that change an artifact;
# the manifest records each one the subcommand takes
ARTIFACT_FLAGS = ("gamma", "full_lattice", "which", "allow_assumption_violation",
                  "param", "points", "span", "paths")


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--grid-points", type=_count(1), default=2000,
                   help="minimum number of time steps (default 2000)")
    p.add_argument("--gamma", type=int, choices=(1, -1), default=1,
                   help="overall portfolio direction applied at load")
    p.add_argument("--allow-assumption-violation", action="store_true",
                   help="price even when the rate inequalities fail")
    p.add_argument("--full-lattice", action="store_true",
                   help="force full subset enumeration (disable the "
                        "homogeneous reduction)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxva",
        description="robust XVA pricing engine for CDS portfolios",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="clean value surfaces")
    _add_common(p)

    p = sub.add_parser("xva", help="XVA bounds and regime record")
    _add_common(p)
    p.add_argument("--which", choices=("actual", "upper", "lower", "all"),
                   default="all")

    p = sub.add_parser("verify", help="Monte Carlo oracle report")
    _add_common(p)
    p.add_argument("--paths", type=_count(2), default=100_000,
                   help="Monte Carlo paths, at least 2 for a standard error "
                        "(default 100000)")
    p.add_argument("--seed", type=_count(0), default=0)

    p = sub.add_parser("sweep", help="comparative statics table")
    _add_common(p)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--points", type=_count(1), default=21)
    p.add_argument("--span", type=float, default=0.5)

    return parser


def _load(args):
    cfg, model, portfolio, model_P = load_config(args.config)
    if args.gamma == -1:
        portfolio = portfolio.flipped()
    return cfg, model, portfolio, model_P


def _variants(cfg, which: str) -> tuple[str, ...]:
    if which == "all":
        return all_variants(cfg)
    if which not in all_variants(cfg):
        raise ConfigError("--which actual requires mu_true in counterparty_band")
    return (which,)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.command == "sweep":
            return _cmd_sweep(args, out_dir, started)
        cfg, model, portfolio, model_P = _load(args)
        if args.command == "price":
            return _cmd_price(args, cfg, model, portfolio, model_P, out_dir, started)
        if args.command == "xva":
            return _cmd_xva(args, cfg, model, portfolio, model_P, out_dir, started)
        if args.command == "verify":
            return _cmd_verify(args, cfg, model, portfolio, model_P, out_dir, started)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as exc:
        print(f"{exc}", file=sys.stderr)
        print("rerun with --allow-assumption-violation to proceed anyway",
              file=sys.stderr)
        return EXIT_ASSUMPTION


def _write_manifest(args, out_dir: Path, outputs: list[str], started: float,
                    seed: int | None = None) -> None:
    payload = manifest(
        subcommand=args.command,
        config_path=args.config,
        version=__version__,
        seed=seed,
        grid_points=args.grid_points,
        flags={k: v for k, v in vars(args).items() if k in ARTIFACT_FLAGS},
        outputs=[Path(o).name for o in outputs],
        wall_clock_s=time.perf_counter() - started,
    )
    write_json(out_dir / "manifest.json", payload)


def _cmd_price(args, cfg, model, portfolio, model_P, out_dir, started) -> int:
    result = run_engine(
        cfg, model, portfolio, model_P,
        grid_points=args.grid_points,
        force_full=args.full_lattice,
        allow_assumption_violation=args.allow_assumption_violation,
    )
    clean_path = out_dir / "clean.csv"
    margin_path = out_dir / "margins.csv"
    write_clean_csv(clean_path, result.clean)
    write_margin_csv(margin_path, result.margins.vm, result.margins.im,
                     result.margins.m)
    _write_manifest(args, out_dir, [str(clean_path), str(margin_path)], started)
    return EXIT_OK


def _cmd_xva(args, cfg, model, portfolio, model_P, out_dir, started) -> int:
    variants = _variants(cfg, args.which)
    result = run_engine(
        cfg, model, portfolio, model_P,
        variants=variants,
        grid_points=args.grid_points,
        force_full=args.full_lattice,
        allow_assumption_violation=args.allow_assumption_violation,
    )
    xva_path = out_dir / "xva.csv"
    regime_path = out_dir / "regime.csv"
    write_xva_csv(xva_path, result.xva)
    write_regime_csv(regime_path, result.xva)
    outputs = [str(xva_path)]
    if regime_path.exists():
        outputs.append(str(regime_path))
    _write_manifest(args, out_dir, outputs, started)
    return EXIT_OK


def _cmd_verify(args, cfg, model, portfolio, model_P, out_dir, started) -> int:
    result = run_engine(
        cfg, model, portfolio, model_P,
        variants=all_variants(cfg),
        grid_points=args.grid_points,
        force_full=args.full_lattice,
        allow_assumption_violation=args.allow_assumption_violation,
    )
    report = verify(result, n_paths=args.paths, seed=args.seed)
    report_path = out_dir / "verify.json"
    write_json(report_path, report)
    _write_manifest(args, out_dir, [str(report_path)], started, seed=args.seed)
    if not report["passed"]:
        print("verification failed; see verify.json", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_sweep(args, out_dir: Path, started) -> int:
    doc = read_config(args.config)
    spec = SweepSpec(
        param=args.param,
        values=default_grid(base_value(doc, args.param), points=args.points, span=args.span),
    )
    result = run_sweep(
        doc, spec,
        grid_points=args.grid_points,
        allow_assumption_violation=args.allow_assumption_violation,
        gamma=args.gamma,
        force_full=args.full_lattice,
    )
    sweep_path = out_dir / f"sweep_{args.param}.csv"
    write_sweep_csv(sweep_path, result)
    _write_manifest(args, out_dir, [str(sweep_path)], started)
    if all(not row.ok for row in result.rows):
        print("every sweep point failed; see the status column", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
