"""Comparative statics: solve the full XVA triple across a parameter grid."""

from __future__ import annotations

import copy
import functools
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .engine import run_engine
from .market import ConfigError, market_from_dict
from .strategies import robust_strategy
from .xva import all_variants

# where each sweepable parameter sits in a config document: the key path of
# its block; band_width is mu_upper - mu_lower of its block
_BLOCK = {**dict.fromkeys(("a20", "a23", "a33", "a30"), ("contagion",)),
          "alpha": ("portfolio", "collateral"), "band_width": ("counterparty_band",)}
SWEEPABLE = tuple(_BLOCK)

# the contagion table keys that, when a config gives one, replace the affine
# intensities a sweepable parameter belongs to
_OVERRIDDEN_BY = {**dict.fromkeys(("a20", "a23"), ("counterparty_table",)),
                  **dict.fromkeys(("a30", "a33"), ("reference_tables", "reference_table"))}


@dataclass(frozen=True)
class SweepSpec:
    """Parameter grid for one comparative-statics run.

    The a20 / a23 sweeps re-derive the counterparty band from the contagion
    parameters at every grid point (mu_lower = a20 + r_D and
    mu_upper = a20 + r_D + N * a23), matching the benchmark convention.
    """

    param: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ConfigError("sweep grid is empty")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("sweep grid values must be finite")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep grid must be strictly increasing")

    @property
    def rederive(self) -> bool:
        return self.param in ("a20", "a23")


def default_grid(base_value: float, points: int = 21, span: float = 0.5) -> tuple[float, ...]:
    """Grid of ``points`` values spanning +-span (relative) around the base;
    one point is the base itself."""
    if points == 1:
        return (base_value,)
    if base_value == 0.0:
        return tuple(np.linspace(0.0, 1.0, points).tolist())
    lo, hi = base_value * (1.0 - span), base_value * (1.0 + span)
    if lo > hi:
        lo, hi = hi, lo
    return tuple(np.linspace(lo, hi, points).tolist())


@dataclass
class SweepRow:
    value: float
    ok: bool
    error: str = ""
    xva_lower: float = float("nan")
    xva_actual: float = float("nan")
    xva_upper: float = float("nan")
    xi_ref_val: float = float("nan")
    xi_I_val: float = float("nan")
    xi_C_val: float = float("nan")
    xi_f_val: float = float("nan")
    v_hat_0: float = float("nan")
    # the point's EngineResult.timings, carried back from its worker; not
    # written to the CSV
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows if r.ok])


def _block(doc: dict, param: str, create: bool = False) -> dict:
    """The block of ``doc`` holding ``param``; a missing block reads as empty,
    and with ``create`` it is added."""
    for key in _BLOCK[param]:
        doc = doc.setdefault(key, {}) if create else doc.get(key, {})
    return doc


def _value(doc: dict, param: str) -> float:
    block = _block(doc, param)
    if param == "band_width":
        return float(block["mu_upper"]) - float(block["mu_lower"])
    return float(block.get(param, 0.0))


def base_value(doc: dict, param: str) -> float:
    """The value of ``param`` in ``doc``, which must parse; ConfigError otherwise."""
    market_from_dict(doc)
    return _value(doc, param)


def _apply_param(doc: dict, param: str, value: float) -> dict:
    doc = copy.deepcopy(doc)
    block = _block(doc, param, create=True)
    if param == "band_width":
        center = 0.5 * (float(block["mu_lower"]) + float(block["mu_upper"]))
        block["mu_lower"] = center - 0.5 * value
        block["mu_upper"] = center + 0.5 * value
    else:
        block[param] = value
    return doc


def _rederive_band(doc: dict) -> None:
    n = len(doc["portfolio"]["contracts"])
    r_D = float(doc["rates"]["r_D"])
    a20, a23 = _value(doc, "a20"), _value(doc, "a23")
    band = _block(doc, "band_width")
    band["mu_lower"] = a20 + r_D
    band["mu_upper"] = a20 + r_D + n * a23


def sweep_point(
    base_doc: dict,
    spec: SweepSpec,
    value: float,
    *,
    grid_points: int,
    allow_assumption_violation: bool,
    gamma: int,
    force_full: bool,
) -> SweepRow:
    """Solves one grid point; a solver failure is recorded on the row."""
    row = SweepRow(value=value, ok=False)
    try:
        doc = _apply_param(base_doc, spec.param, value)
        if spec.rederive:
            _rederive_band(doc)
        cfg, model, portfolio, model_P = market_from_dict(doc)
        if gamma == -1:
            portfolio = portfolio.flipped()
        result = run_engine(
            cfg, model, portfolio, model_P,
            variants=all_variants(cfg),
            grid_points=grid_points,
            force_full=force_full,
            allow_assumption_violation=allow_assumption_violation,
        )
        root = result.space.root()
        row.v_hat_0 = float(result.clean[root, 0])
        row.xva_upper = float(result.xva["upper"].surface[root, 0])
        row.xva_lower = float(result.xva["lower"].surface[root, 0])
        if "actual" in result.xva:
            row.xva_actual = float(result.xva["actual"].surface[root, 0])
        xi_ref, _, xi_I, xi_C, xi_f, _ = robust_strategy(
            result.space, result.xva["upper"].surface, result.clean, result.margins.m,
            portfolio, 0)
        if portfolio.n:  # every name survives at the root: name 1's position
            row.xi_ref_val = float(xi_ref[root, 0])
        row.xi_I_val, row.xi_C_val, row.xi_f_val = (float(x[root]) for x in (xi_I, xi_C, xi_f))
        row.timings = result.timings
        row.ok = True
    except Exception as exc:  # noqa: BLE001 - sweep must keep going
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(
    base_doc: dict,
    spec: SweepSpec,
    grid_points: int = 2000,
    allow_assumption_violation: bool = False,
    gamma: int = 1,
    force_full: bool = False,
) -> SweepResult:
    """One full lattice solve (clean + XVA triple + strategy values) per point.

    ``gamma = -1`` flips the portfolio direction and ``force_full`` puts
    every name in a lattice class of its own, as the CLI flags of the same
    names do.
    Solver failures are recorded on the affected row and the sweep continues.
    A base document that does not parse is refused with ConfigError, and so
    is a contagion parameter that a table of the config overrides, since
    every row would be the same.

    The points are independent, so they run in W processes forked from this
    one, which start with its modules loaded (the CLI starts no thread): one
    per CPU in the affinity mask, at most one per point. Worker w solves
    points w, w + W, ... and pickles each row to its own pipe once solved.
    Rows are read in grid order and equal, bit for bit, what ``sweep_point``
    gives in this process. A point whose row never arrives, because its
    worker died, gets a failed row naming the worker's exit code or signal.
    Every worker is reaped before this returns or raises.
    """
    market_from_dict(base_doc)
    for table in _OVERRIDDEN_BY.get(spec.param, ()):
        if table in base_doc["contagion"]:
            raise ConfigError(
                f"sweeping {spec.param} changes nothing: contagion.{table} in the config "
                f"overrides it"
            )
    point = functools.partial(
        sweep_point, base_doc, spec,
        grid_points=grid_points,
        allow_assumption_violation=allow_assumption_violation,
        gamma=gamma,
        force_full=force_full,
    )
    workers = min(len(os.sched_getaffinity(0)), len(spec.values))
    out = SweepResult(spec=spec)
    pids, pipes, died = [], [], {}  # died: worker -> the error of its missing rows
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            # closed here before the next fork, so a dead worker's pipe reads as EOF
            with open(write, "wb") as sink:
                if (pid := os.fork()) == 0:  # the worker, which never leaves this block
                    status = 1
                    try:
                        for value in spec.values[w::workers]:
                            pickle.dump(point(value), sink)
                            sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        for i, value in enumerate(spec.values):
            w = i % workers
            if w not in died:
                try:
                    out.rows.append(pickle.load(pipes[w]))
                    continue
                except (EOFError, pickle.UnpicklingError):  # no row, or a cut one
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                    died[w] = (f"worker died: exit code {code}" if code >= 0
                               else f"worker died: signal {-code}")
            out.rows.append(SweepRow(value=value, ok=False, error=died[w]))
        return out
    finally:
        for pipe in pipes:
            pipe.close()
        for w, pid in enumerate(pids):
            if w not in died:
                if len(out.rows) < len(spec.values):  # raising: stop the worker
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
