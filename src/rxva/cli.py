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
import math
import sys
import time
from pathlib import Path

from . import __version__
from .engine import run_engine
from .market import AssumptionError, ConfigError, load_config, read_config
from .oracle import MAX_PATH_SLOTS, verify
from .reporting import (
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


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


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
                   help="one lattice class per name: all 2^N default sets "
                        "(disable the grouping of exchangeable names)")


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
    p.add_argument("--span", type=_finite, default=0.5)

    return parser


def _engine(args, which: str | None = None):
    """Loads the config, flips it for ``--gamma -1`` and runs the engine.

    ``which`` names the XVA variants to solve: None for the clean value
    alone, ``"all"`` for every variant the config can price, or one of them.
    A ``verify`` whose paths the oracle's memory cannot hold is refused first.
    """
    cfg, model, portfolio, model_P = load_config(args.config)
    if args.gamma == -1:
        portfolio = portfolio.flipped()
    if args.command == "verify" and args.paths * (portfolio.n + 1) > MAX_PATH_SLOTS:
        raise ConfigError(
            f"--paths {args.paths} over {portfolio.n} names exceeds the oracle's bound of "
            f"{MAX_PATH_SLOTS} paths times (names + 1); at most "
            f"{MAX_PATH_SLOTS // (portfolio.n + 1)} paths fit"
        )
    variants = () if which is None else all_variants(cfg)
    if which not in (None, "all"):
        if which not in variants:
            raise ConfigError("--which actual requires mu_true in counterparty_band")
        variants = (which,)
    return run_engine(
        cfg, model, portfolio, model_P,
        variants=variants,
        grid_points=args.grid_points,
        force_full=args.full_lattice,
        allow_assumption_violation=args.allow_assumption_violation,
    )


def _write(writer, path: Path, *args) -> None:
    """``writer(path, *args)``, with a path that cannot be written refused as a
    configuration error."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


# Each subcommand writes its artifacts into the output directory and returns
# their file names and the exit code.

def _cmd_price(args, out_dir: Path) -> tuple[list[str], int]:
    result = _engine(args)
    _write(write_clean_csv, out_dir / "clean.csv", result.grid, result.clean)
    _write(write_margin_csv, out_dir / "margins.csv", result.grid, result.margins.vm,
           result.margins.im, result.margins.m)
    return ["clean.csv", "margins.csv"], EXIT_OK


def _cmd_xva(args, out_dir: Path) -> tuple[list[str], int]:
    result = _engine(args, args.which)
    _write(write_xva_csv, out_dir / "xva.csv", result.grid, result.xva)
    if args.which == "actual":
        return ["xva.csv"], EXIT_OK
    _write(write_regime_csv, out_dir / "regime.csv", result.grid, result.xva)
    return ["xva.csv", "regime.csv"], EXIT_OK


def _import_random_without_openssl() -> None:
    """Imports ``numpy.random`` with OpenSSL's ``_hashlib`` held out.

    ``numpy.random`` imports ``secrets``, whose ``hmac`` loads ``_hashlib``
    and maps OpenSSL's ``libcrypto`` (about 3.3 MiB of peak resident memory)
    for no draw the oracle makes; ``hashlib`` and ``hmac`` fall back to
    CPython's own digests when ``_hashlib`` cannot be imported. Nothing is
    held out once either module is loaded.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["_hashlib"]


def _cmd_verify(args, out_dir: Path) -> tuple[list[str], int]:
    _import_random_without_openssl()
    report = verify(_engine(args, "all"), n_paths=args.paths, seed=args.seed)
    _write(write_json, out_dir / "verify.json", report)
    if not report["passed"]:
        print("verification failed; see verify.json", file=sys.stderr)
        return ["verify.json"], EXIT_VERIFY
    return ["verify.json"], EXIT_OK


def _cmd_sweep(args, out_dir: Path) -> tuple[list[str], int]:
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
    name = f"sweep_{args.param}.csv"
    _write(write_sweep_csv, out_dir / name, result)
    if all(not row.ok for row in result.rows):
        print("every sweep point failed; see the status column", file=sys.stderr)
        return [name], EXIT_CONFIG
    return [name], EXIT_OK


COMMANDS = {"price": _cmd_price, "xva": _cmd_xva, "verify": _cmd_verify, "sweep": _cmd_sweep}


def _manifest(args, outputs: list[str], started: float) -> dict:
    """The run's manifest: identical manifests (wall clock aside) imply
    byte-identical artifacts."""
    # CPython's own SHA-256 gives hashlib's digest without mapping OpenSSL's
    # libcrypto (about 3.6 MiB resident) for this one call
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256  # Python 3.10-3.11
    return {
        "subcommand": args.command,
        "config_sha256": sha256(Path(args.config).read_bytes()).hexdigest(),
        "engine_version": __version__,
        "seed": getattr(args, "seed", None),
        "grid_points": args.grid_points,
        "flags": {k: v for k, v in vars(args).items() if k in ARTIFACT_FLAGS},
        "outputs": sorted(outputs),
        "wall_clock_s": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        print(f"configuration error: cannot create the output directory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    started = time.perf_counter()
    try:
        outputs, code = COMMANDS[args.command](args, out_dir)
        _write(write_json, out_dir / "manifest.json", _manifest(args, outputs, started))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as exc:
        print(f"{exc}", file=sys.stderr)
        print("rerun with --allow-assumption-violation to proceed anyway",
              file=sys.stderr)
        return EXIT_ASSUMPTION
    return code


if __name__ == "__main__":
    sys.exit(main())
