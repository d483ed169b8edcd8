"""Deterministic CSV/JSON artifact writers."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .xva import REGIME_LABELS, XvaResult


def fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_lattice_csv(path, header: str, grid, columns, cell=fmt) -> None:
    """One line per state and node, states in key order: time, state, cells.

    ``columns`` are (states x nodes) arrays on ``grid``; ``cell`` formats one
    entry of a column. One state's rows are converted to Python numbers and
    written at a time, so the file is never held whole. It is written under
    a temporary name beside ``path`` and renamed onto it when complete; a
    failed write removes the temporary file and leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    times = [fmt(t) for t in grid.tolist()]
    spec = "%.12e" if cell is fmt else "%s"  # "%.12e" % x is fmt(x), one % per line
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for key, rows in enumerate(zip(*columns)):
                rows = [row.tolist() for row in rows]
                if cell is not fmt:
                    rows = [list(map(cell, row)) for row in rows]
                line = f"%s,{key}," + ",".join([spec] * len(rows)) + "\n"
                fh.write("".join([line % node for node in zip(times, *rows)]))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_clean_csv(path, grid, clean) -> None:
    _write_lattice_csv(path, "time,state,value", grid, [clean])


def write_margin_csv(path, grid, vm, im, m) -> None:
    _write_lattice_csv(path, "time,state,vm,im,m", grid, [vm, im, m])


def write_xva_csv(path, grid, results: dict[str, XvaResult]) -> None:
    order = [w for w in ("actual", "upper", "lower") if w in results]
    _write_lattice_csv(path, "time,state," + ",".join(f"u_{w}" for w in order), grid,
                       [results[w].surface for w in order])


def write_regime_csv(path, grid, results: dict[str, XvaResult]) -> None:
    order = [w for w in ("upper", "lower") if w in results]
    _write_lattice_csv(path, "time,state," + ",".join(f"regime_{w}" for w in order), grid,
                       [results[w].regime for w in order], cell=REGIME_LABELS.__getitem__)


def _quoted(cell: str) -> str:
    """``cell`` as one CSV field: in double quotes, its own doubled, when it
    holds a comma, a double quote or a line break (RFC 4180)."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_sweep_csv(path, sweep_result) -> None:
    cols = (
        "xva_lower", "xva_actual", "xva_upper",
        "xi_ref_val", "xi_I_val", "xi_C_val", "xi_f_val", "v_hat_0",
    )
    lines = ["param," + ",".join(cols) + ",status"]
    for row in sweep_result.rows:
        cells = ",".join(fmt(getattr(row, c)) for c in cols)
        status = "ok" if row.ok else _quoted(f"failed({row.error})")
        lines.append(f"{fmt(row.value)},{cells},{status}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
