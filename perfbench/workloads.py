"""Workloads of the rxva benchmark: generated inputs, CLI arguments and checks.

Each workload is one ``python -m rxva.cli`` invocation. Its inputs depend on
the workload seed only through ``seed % SEED_CLASSES``, the ``verify --seed``
of ``audit``; ``sweep`` takes no seed. So every run, whatever its seed, is
checked against reference values recorded from the code in
``references.json`` (see ``record_references.py``), and every ``verify`` seed
used is known to pass the oracle's 3-standard-error checks, which a random
seed fails by chance about once in 200.

* ``audit``: ``verify --paths 100000`` on the single-name config. The
  pure-Python Monte Carlo oracle does the work; the lattice has 2 states.
* ``sweep``: ``sweep --param a30 --points 9`` on the five-name config: nine
  engine runs on a 6-state homogeneous lattice at 2000 steps, dominated by
  per-call and per-step Python overhead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
FIVE_NAME = CONFIGS / "five_name_benchmark.json"
SINGLE_NAME = CONFIGS / "single_name_switching.json"
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("audit", "sweep")
SEED_CLASSES = 16
TOLERANCE = 1e-10  # absolute, on every value compared with a reference

SWEEP_POINTS = 9
SWEEP_COLUMNS = (
    "xva_lower", "xva_actual", "xva_upper",
    "xi_ref_val", "xi_I_val", "xi_C_val", "xi_f_val", "v_hat_0",
)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``TOY`` keeps the harness smoke test fast."""

    audit_paths: int
    sweep_grid_points: int
    ac08_grid_points: int


FULL = Sizes(audit_paths=100_000, sweep_grid_points=2000, ac08_grid_points=2000)
TOY = Sizes(audit_paths=500, sweep_grid_points=50, ac08_grid_points=100)


@dataclass(frozen=True)
class Invocation:
    """One prepared workload: the config file and the CLI arguments."""

    workload: str
    seed_class: int
    config: Path
    args: tuple[str, ...]

    def argv(self, out_dir: Path) -> list[str]:
        """Arguments for ``rxva.cli.main`` writing into ``out_dir``."""
        return [self.args[0], "--config", str(self.config),
                "--out-dir", str(out_dir), *self.args[1:]]


def prepare(workload: str, seed: int, sizes: Sizes = FULL) -> Invocation:
    """The workload's config and CLI arguments for ``seed``."""
    seed_class = seed % SEED_CLASSES
    if workload == "audit":
        config = SINGLE_NAME
        args = ("verify", "--paths", str(sizes.audit_paths), "--seed", str(seed_class))
    elif workload == "sweep":
        config = FIVE_NAME
        args = ("sweep", "--param", "a30", "--points", str(SWEEP_POINTS),
                "--grid-points", str(sizes.sweep_grid_points),
                "--allow-assumption-violation")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Invocation(workload, seed_class, config, args)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _close(name: str, got: float, want: float, problems: list[str]) -> None:
    if not abs(got - want) <= TOLERANCE:
        problems.append(f"{name} = {got!r}, reference {want!r}")


def check(inv: Invocation, out_dir: Path, references: dict | None) -> list[str]:
    """Problems found in the outputs of one run; empty when they are correct.

    ``references`` is None at toy sizes, where only the structural checks
    apply.
    """
    try:
        if inv.workload == "audit":
            return _check_audit(out_dir, references)
        return _check_sweep(out_dir, references)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_audit(out_dir: Path, references: dict | None) -> list[str]:
    problems: list[str] = []
    report = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
    if report.get("passed") is not True:
        problems.append("verify.json: passed is not true")
    numbers = [v for check in report["checks"].values() for v in check.values()
               if isinstance(v, float)]
    if not all(math.isfinite(v) for v in numbers):
        problems.append("verify.json holds non-finite values")
    if references is not None:
        ref = references["audit"]
        checks = report["checks"]
        _close("clean_value.ode", checks["clean_value"]["ode"], ref["clean_ode"], problems)
        _close("xva_closeout.ode", checks["xva_closeout"]["ode"], ref["xva_ode"], problems)
    return problems


def _check_sweep(out_dir: Path, references: dict | None) -> list[str]:
    problems: list[str] = []
    lines = (out_dir / "sweep_a30.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "param," + ",".join(SWEEP_COLUMNS) + ",status":
        return [f"sweep_a30.csv header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != SWEEP_POINTS:
        problems.append(f"{len(rows)} sweep rows, expected {SWEEP_POINTS}")
    if any(row[-1] != "ok" for row in rows):
        problems.append("a sweep row is not ok")
    values = [[float(cell) for cell in row[:-1]] for row in rows]
    if not all(math.isfinite(v) for row in values for v in row):
        problems.append("sweep_a30.csv holds non-finite values")
    if references is not None:
        for i, (row, ref_row) in enumerate(zip(values, references["sweep"]["rows"])):
            for name, got, want in zip(("param",) + SWEEP_COLUMNS, row, ref_row):
                _close(f"sweep row {i} {name}", got, want, problems)
    return problems
