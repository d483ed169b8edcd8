"""End-to-end solve pipeline shared by the CLI, sweeps, and the verifier."""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .collateral import MarginSchedule, margin_schedule
from .grids import StateSpace, build_grid, choose_state_space
from .market import (
    AssumptionError,
    ConfigError,
    ContagionModel,
    MarketConfig,
    Portfolio,
    validate_assumptions,
)
from .xva import XvaResult, solve_clean, solve_xva, source_length

# Largest lattice the engine allocates, in states times grid nodes: 16 MiB per
# surface, which admits the full 2^10 lattice at the default 2000 steps.
MAX_LATTICE_CELLS = 1 << 21

# Longest generated step the engine compiles, in characters of source as
# xva.source_length bounds it.  Compiling takes about 84 bytes per character,
# so about 500 MiB here.  The full 2^10 lattice with every variant is 3.2M.
# A run compiles one step: verify's drift identity runs the pass's own.
MAX_STEP_SOURCE = 6_000_000


@dataclass
class EngineResult:
    cfg: MarketConfig
    model: ContagionModel
    portfolio: Portfolio
    grid: np.ndarray
    space: StateSpace
    clean: np.ndarray
    margins: MarginSchedule
    solution: np.ndarray  # the pass's (columns x nodes) array; every surface is a row block
    xva: dict[str, XvaResult] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    bind: Callable | None = None  # the XVA pass's xva._binder; None for the clean value alone


def grid_breakpoints(model: ContagionModel, portfolio: Portfolio) -> list[float]:
    """Times the integrator must not step across; ``build_grid`` keeps those in (0, T)."""
    pts = list(model.breakpoints())
    coll = portfolio.collateral
    if coll.beta > 0.0:
        pts.append(portfolio.maturity - coll.delta)
    return pts


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
    ``solution`` is the pass's array, ``timings`` holds the wall time of
    that pass, and ``bind`` the binder of its step when it solved a
    variant.  A lattice of more cells than MAX_LATTICE_CELLS, or whose step
    would be longer than MAX_STEP_SOURCE, is refused with ConfigError
    before any of it is built.
    """
    report = validate_assumptions(cfg, model, horizon=portfolio.maturity, physical=model_P)
    if not report.passed and not allow_assumption_violation:
        raise AssumptionError(report)
    space = choose_state_space(model, portfolio, force_full=force_full)
    chars = source_length(cfg, space, variants)
    if chars > MAX_STEP_SOURCE:
        raise ConfigError(
            f"the lattice step for N = {space.n} names ({space.size} states) would be "
            f"{chars} characters of source, over the bound of {MAX_STEP_SOURCE}"
        )
    grid = build_grid(
        portfolio.maturity, grid_breakpoints(model, portfolio), min_points=grid_points,
        space=space, max_cells=MAX_LATTICE_CELLS,
    )
    margins = margin_schedule(model if model_P is None else model_P, portfolio, grid, space)
    t0 = time.perf_counter()
    if variants:
        clean, xva, bind, solution = solve_xva(cfg, model, portfolio, grid, space, margins,
                                               variants)
    else:
        clean = solution = solve_clean(cfg, model, portfolio, grid, space)
        xva, bind = {}, None
        margins.settle(clean)
    timings = {"pass": time.perf_counter() - t0}
    return EngineResult(cfg=cfg, model=model, portfolio=portfolio, grid=grid, space=space,
                        clean=clean, margins=margins, solution=solution, xva=xva,
                        timings=timings, bind=bind)
