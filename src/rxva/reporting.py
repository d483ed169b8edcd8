"""Deterministic CSV/JSON artifact writers and the run manifest."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .grids import LatticeSurface
from .xva import REGIME_LABELS, XvaResult


def fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_lattice_csv(path, header: str, grid, columns, cell=fmt) -> None:
    """One line per state and node, states in key order: time, state, cells.

    ``columns`` are (states x nodes) arrays on ``grid``, converted to Python
    numbers once; ``cell`` formats one entry of a column.
    """
    times = [fmt(t) for t in grid.tolist()]
    lines = [header]
    for key, rows in enumerate(zip(*(c.tolist() for c in columns))):
        lines.extend(f"{t},{key}," + ",".join(map(cell, node))
                     for t, node in zip(times, zip(*rows)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_clean_csv(path, surface: LatticeSurface) -> None:
    _write_lattice_csv(path, "time,state,value", surface.grid, [surface.values])


def write_margin_csv(path, vm: LatticeSurface, im: LatticeSurface, m: LatticeSurface) -> None:
    _write_lattice_csv(path, "time,state,vm,im,m", m.grid, [vm.values, im.values, m.values])


def write_xva_csv(path, results: dict[str, XvaResult]) -> None:
    order = [w for w in ("actual", "upper", "lower") if w in results]
    _write_lattice_csv(path, "time,state," + ",".join(f"u_{w}" for w in order),
                       results[order[0]].surface.grid,
                       [results[w].surface.values for w in order])


def write_regime_csv(path, results: dict[str, XvaResult]) -> None:
    order = [w for w in ("upper", "lower") if w in results and results[w].regime is not None]
    if not order:
        return
    _write_lattice_csv(path, "time,state," + ",".join(f"regime_{w}" for w in order),
                       results[order[0]].surface.grid,
                       [results[w].regime for w in order], cell=REGIME_LABELS.__getitem__)


def write_sweep_csv(path, sweep_result) -> None:
    cols = (
        "xva_lower", "xva_actual", "xva_upper",
        "xi_ref_val", "xi_I_val", "xi_C_val", "xi_f_val", "v_hat_0",
    )
    lines = ["param," + ",".join(cols) + ",status"]
    for row in sweep_result.rows:
        cells = ",".join(fmt(getattr(row, c)) for c in cols)
        status = "ok" if row.ok else f"failed({row.error})"
        lines.append(f"{fmt(row.value)},{cells},{status}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def config_sha256(config_path) -> str:
    return hashlib.sha256(Path(config_path).read_bytes()).hexdigest()


def manifest(
    subcommand: str,
    config_path,
    version: str,
    seed: int | None,
    grid_points: int,
    flags: dict,
    outputs: list[str],
    wall_clock_s: float,
) -> dict:
    """Run manifest; identical manifests (wall clock aside) imply
    byte-identical data artifacts.  ``flags`` holds every other option that
    changes an artifact."""
    return {
        "subcommand": subcommand,
        "config_sha256": config_sha256(config_path),
        "engine_version": version,
        "seed": seed,
        "grid_points": grid_points,
        "flags": flags,
        "outputs": sorted(outputs),
        "wall_clock_s": wall_clock_s,
    }
