"""End-to-end solve pipeline shared by the CLI, sweeps, and the verifier."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .collateral import MarginSchedule, margin_schedule
from .grids import LatticeSurface, StateSpace, build_grid, choose_state_space
from .market import (
    AssumptionError,
    ContagionModel,
    MarketConfig,
    Portfolio,
    validate_assumptions,
)
from .xva import XvaResult, solve_clean, solve_xva

# Largest lattice the engine allocates, in states times grid nodes: 16 MiB per
# surface, which admits the full 2^10 lattice at the default 2000 steps.
MAX_LATTICE_CELLS = 1 << 21


@dataclass
class EngineResult:
    cfg: MarketConfig
    model: ContagionModel
    portfolio: Portfolio
    model_P: ContagionModel
    grid: np.ndarray
    space: StateSpace
    clean: LatticeSurface
    margins: MarginSchedule
    xva: dict[str, XvaResult] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)


def grid_breakpoints(model: ContagionModel, portfolio: Portfolio) -> list[float]:
    """Time nodes the integrator must not step across."""
    pts = list(model.breakpoints())
    coll = portfolio.collateral
    if coll.beta > 0.0:
        pts.append(portfolio.maturity - coll.delta)
    return sorted({p for p in pts if 0.0 < p < portfolio.maturity})


def run_engine(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    model_P: ContagionModel | None = None,
    variants: tuple[str, ...] = (),
    grid_points: int = 2000,
    force_full: bool = False,
    allow_assumption_violation: bool = False,
) -> EngineResult:
    """Validates, builds the grid, and solves the requested surfaces.

    The initial margin depends on time and state only, so the margin
    schedule is built first.  One lattice pass then integrates the clean
    value together with every requested variant (the clean value alone when
    none is requested), and the variation margin is set from its clean rows.
    ``timings`` holds the wall time of that pass.
    """
    model_P = model_P if model_P is not None else model
    report = validate_assumptions(cfg, model, horizon=portfolio.maturity)
    if not report.passed and not allow_assumption_violation:
        raise AssumptionError(report)
    space = choose_state_space(model, portfolio, force_full=force_full)
    grid = build_grid(
        portfolio.maturity, grid_breakpoints(model, portfolio), min_points=grid_points,
        space=space, max_cells=MAX_LATTICE_CELLS,
    )
    margins = margin_schedule(model_P, portfolio, grid, space)
    t0 = time.perf_counter()
    if variants:
        clean, xva = solve_xva(cfg, model, portfolio, grid, space, margins, variants)
    else:
        clean, xva = solve_clean(cfg, model, portfolio, grid, space), {}
        margins.settle(clean)
    timings = {"pass": time.perf_counter() - t0}
    return EngineResult(
        cfg=cfg,
        model=model,
        portfolio=portfolio,
        model_P=model_P,
        grid=grid,
        space=space,
        clean=clean,
        margins=margins,
        xva=xva,
        timings=timings,
    )
