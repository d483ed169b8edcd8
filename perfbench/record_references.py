"""Records the reference values that ``workloads.check`` compares against.

Run from the repository root, with the code whose outputs are taken as
correct:

    PYTHONPATH=src python3 perfbench/record_references.py

It solves each workload in-process at full size, for every seed class, and
writes ``perfbench/references.json``. It also requires ``verify`` to pass for
every seed class of the ``audit`` workload, so a timing run never trips one of
the oracle's 3-standard-error checks by chance. It takes a few minutes.
"""

from __future__ import annotations

import json

from rxva.engine import run_engine
from rxva.market import load_config
from rxva.oracle import verify
from rxva.sweeps import SweepSpec, default_grid, run_sweep

from workloads import (
    FIVE_NAME, FULL, REFERENCES, SEED_CLASSES, SINGLE_NAME, SWEEP_COLUMNS, SWEEP_POINTS,
)

TRIPLE = ("actual", "upper", "lower")


def audit_reference() -> dict:
    cfg, model, portfolio, model_P = load_config(SINGLE_NAME)
    result = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE)
    reports = [verify(result, n_paths=FULL.audit_paths, seed=s) for s in range(SEED_CLASSES)]
    failing = [s for s, report in enumerate(reports) if not report["passed"]]
    if failing:
        raise SystemExit(f"verify fails for seed classes {failing}")
    checks = reports[0]["checks"]
    return {"clean_ode": checks["clean_value"]["ode"], "xva_ode": checks["xva_closeout"]["ode"]}


def sweep_reference() -> dict:
    doc = json.loads(FIVE_NAME.read_text(encoding="utf-8"))
    spec = SweepSpec(param="a30", values=default_grid(float(doc["contagion"]["a30"]),
                                                      points=SWEEP_POINTS))
    result = run_sweep(doc, spec, grid_points=FULL.sweep_grid_points,
                       allow_assumption_violation=True)
    return {"rows": [[row.value] + [getattr(row, c) for c in SWEEP_COLUMNS]
                     for row in result.rows]}


def main() -> None:
    references = {
        "audit": audit_reference(),
        "sweep": sweep_reference(),
    }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
