"""Comparative statics: solve the full XVA triple across a parameter grid."""

from __future__ import annotations

import copy
import functools
import os
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
    """Grid of ``points`` values spanning +-span (relative) around the base."""
    if base_value == 0.0:
        return tuple(np.linspace(0.0, 1.0, points))
    lo, hi = base_value * (1.0 - span), base_value * (1.0 + span)
    if lo > hi:
        lo, hi = hi, lo
    return tuple(np.linspace(lo, hi, points))


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
        row.v_hat_0 = result.clean.at0(root)
        row.xva_upper = result.xva["upper"].surface.at0(root)
        row.xva_lower = result.xva["lower"].surface.at0(root)
        if "actual" in result.xva:
            row.xva_actual = result.xva["actual"].surface.at0(root)
        snap = robust_strategy(
            result.xva["upper"].surface, result.clean, result.margins.m,
            portfolio, 0.0, root,
        )
        if snap.alive:
            row.xi_ref_val = snap.xi_ref_values[snap.alive[0]]
        row.xi_I_val = snap.xi_I_value
        row.xi_C_val = snap.xi_C_value
        row.xi_f_val = snap.xi_f_value
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

    The points are independent, so they run in worker processes forked from
    this one: one per CPU in the process's affinity mask, at most one per
    point. Forked, not spawned: a forked worker starts with the modules this
    process has loaded, where a spawned one would import numpy and the
    package again. The CLI starts no thread of its own before a sweep.
    Rows come back in grid order and equal, bit for bit, what
    ``sweep_point`` gives in this process. A point whose worker died, or
    that could not be submitted because a worker had died, gets a failed row
    naming ``BrokenProcessPool``.
    """
    # imported here, so that importing the CLI does not pay for them
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

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
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        # one future per point, not pool.map: when a worker dies, the points
        # that finished keep their rows and only the others fail
        futures = []
        for value in spec.values:
            try:
                futures.append(pool.submit(point, value))
            except BrokenProcessPool as exc:  # a worker died before this point went in
                futures.append(Future())
                futures[-1].set_exception(exc)
        for value, future in zip(spec.values, futures):
            try:
                out.rows.append(future.result())
            except BrokenProcessPool as exc:
                out.rows.append(SweepRow(value=value, ok=False,
                                         error=f"{type(exc).__name__}: {exc}"))
    return out


def is_monotone(values: np.ndarray, direction: str, slack: float = 1e-10) -> bool:
    """Nonstrict monotonicity across adjacent grid points with a slack."""
    diffs = np.diff(values)
    if direction == "nonincreasing":
        return bool(np.all(diffs <= slack))
    if direction == "nondecreasing":
        return bool(np.all(diffs >= -slack))
    if direction == "constant":
        return bool(np.all(np.abs(diffs) <= slack))
    raise ValueError(f"unknown direction {direction!r}")
