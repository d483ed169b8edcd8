"""Clean value and XVA over the default lattice, in one RK4 pass.

Three variants of the reduced XVA equation are solved in reversed time
s = T - t with zero initial data:

* ``actual``: the counterparty account grows at the true rate mu_C_true.
* ``upper``: at each integrator stage the band extreme maximizing the drift
  is selected, driven by the sign of theta_C_tilde - u (robust upper bound).
* ``lower``: the minimizing extreme (robust lower bound).

Every requested variant is integrated in one sweep together with the clean
value, so each RK4 stage sees one consistent clean value and variation
margin, and the per-piece coefficients are shared by all columns.  When the
true counterparty rate is known, the upper and lower solves also accumulate
the pocket surface: the time integral of the surplus rate
(mu_selected - mu_true) * (theta_C_tilde - u), which is the pathwise excess
earned by the super-replicating strategy while no default has occurred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clean import lattice_coefficients
from .collateral import MarginSchedule, closeout_excess
from .grids import LatticeSurface, StateSpace, rk4_sweep
from .market import ConfigError, ContagionModel, MarketConfig, PiecewiseTable, Portfolio

REGIME_LO = 0
REGIME_HI = 1
REGIME_TIE = 2
REGIME_LABELS = {REGIME_LO: "LO", REGIME_HI: "HI", REGIME_TIE: "TIE"}

VARIANTS = ("actual", "upper", "lower")


def resolve_true_h_c(cfg: MarketConfig, model: ContagionModel) -> PiecewiseTable | None:
    """The true counterparty intensity table, or None when mu_C_true is unset.

    With ``mu_C_true = "model"`` it is the model's counterparty table, and
    with a number the constant mu_C_true - r_D.
    """
    if cfg.mu_C_true is None:
        return None
    if cfg.mu_C_true == "model":
        return model.counterparty
    return PiecewiseTable(breaks=(), values=((float(cfg.mu_C_true) - cfg.r_D,),))


def all_variants(cfg: MarketConfig) -> tuple[str, ...]:
    """Every variant the config can price: the actual one needs mu_C_true."""
    return VARIANTS if cfg.mu_C_true is not None else ("upper", "lower")


# ---------------------------------------------------------------------------
# Lattice right-hand side
# ---------------------------------------------------------------------------

def _layout(cfg: MarketConfig, variants) -> tuple[list[tuple[str, int, int | None]], int]:
    """Row blocks of the joint pass, and their count.

    Block 0 is the clean value, then one block per variant, then, when the
    true counterparty rate is known, one pocket block per upper or lower
    variant.  Returns ``(variant, block, pocket block or None)`` per variant.
    """
    layout, n_blocks = [], 1 + len(variants)
    for block, which in enumerate(variants, 1):
        pocket = None
        if which != "actual" and cfg.mu_C_true is not None:
            pocket, n_blocks = n_blocks, n_blocks + 1
        layout.append((which, block, pocket))
    return layout, n_blocks


def lattice_rhs(
    cfg: MarketConfig,
    portfolio: Portfolio,
    size: int,
    alpha: float,
    variants: tuple[str, ...] = (),
):
    """dy/ds of the joint clean/XVA system on one constant-coefficient piece.

    This is the only copy of the reduced XVA driver and of the
    band-switching rule.  ``y`` holds blocks of ``size`` values, one per
    lattice state in key order: the clean value, then one block per entry
    of ``variants``, then, when mu_C_true is set, one pocket block per upper
    or lower variant.  Returns ``rhs(states, im0, im1, w, y) -> list``, where
    ``states`` is a coefficient bundle, ``im0``/``im1`` the initial margin of
    each state at the two ends of the segment and ``w`` the position of the
    stage between them.  The true counterparty intensity is the bundle's
    ``h_C``.
    """
    if any(which not in VARIANTS for which in variants):
        raise ValueError(f"variants must be drawn from {VARIANTS}, got {variants!r}")
    if cfg.mu_C_true is None and "actual" in variants:
        raise ValueError("the actual XVA solve requires mu_C_true in the config")
    h_low, h_high = cfg.counterparty_band_rates()
    picks = {"actual": None, "upper": (h_high, h_low), "lower": (h_low, h_high)}
    layout, n_blocks = _layout(cfg, variants)
    blocks = [  # (column offset, (rate if z_C >= 0, rate otherwise) or None, pocket offset)
        (block * size, picks[which], None if pocket is None else pocket * size)
        for which, block, pocket in layout
    ]
    n_cols = n_blocks * size
    L_I, L_C = portfolio.loss_investor, portfolio.loss_counterparty
    r_D = cfg.r_D
    r_f_plus, r_f_minus = cfg.r_f_plus, cfg.r_f_minus
    r_m_plus, r_m_minus = cfg.r_m_plus, cfg.r_m_minus

    def rhs(states, im0, im1, w, y):
        out = [0.0] * n_cols
        for k, st in enumerate(states):
            v_k = y[k]
            dv = -r_D * v_k - st.sum_S
            for child, rate, loss, _count in st.transitions:
                dv += rate * (loss + y[child] - v_k)
            out[k] = dv
            if not blocks:
                continue
            m = alpha * v_k + im0[k] * (1.0 - w) + im1[k] * w
            gap = v_k - m
            theta_I = -L_I * gap if gap > 0.0 else 0.0
            theta_C = -L_C * gap if gap < 0.0 else 0.0
            h_true = st.h_C
            for off, pick, pocket in blocks:
                u_k = y[off + k]
                z_I = theta_I - u_k
                z_C = theta_C - u_k
                child_sum = 0.0
                jump = 0.0
                for child, rate, _loss, count in st.transitions:
                    u_c = y[off + child]
                    child_sum += count * u_c
                    jump += rate * (u_c - u_k)
                z = child_sum - st.alive_count * u_k
                if pick is None:
                    h_C = h_true
                else:
                    h_C = pick[0] if z_C >= 0.0 else pick[1]
                y_f = u_k + z + z_I + z_C + st.sum_L - m
                out[off + k] = st.h_I * z_I + h_C * z_C + jump + (
                    -(r_f_plus * y_f if y_f > 0.0 else r_f_minus * y_f)
                    + r_D * (z + z_I + z_C)
                    - (r_m_plus * m if m > 0.0 else r_m_minus * m)
                    + r_D * st.sum_L
                )
                if pocket is not None:
                    out[pocket + k] = (h_C - h_true) * z_C
        return out

    return rhs


# ---------------------------------------------------------------------------
# Lattice solves
# ---------------------------------------------------------------------------

@dataclass
class XvaResult:
    which: str
    surface: LatticeSurface
    regime: np.ndarray | None = None
    pocket: LatticeSurface | None = None


def _joint_pass(cfg, model, portfolio, grid, space, margins, variants):
    """One RK4 sweep of the clean value plus every requested variant.

    Returns the pass's array: a row per column of ``lattice_rhs`` (so each
    state's surface is a contiguous row) and an entry per grid node.  A pass
    that leaves a non-finite value anywhere is refused with ConfigError.
    """
    size = space.size
    alpha = margins.alpha if margins is not None else 0.0
    kernel = lattice_rhs(cfg, portfolio, size, alpha, variants)
    by_seg = lattice_coefficients(model, portfolio, space, resolve_true_h_c(cfg, model),
                                  0.5 * (grid[:-1] + grid[1:]))
    if margins is not None:
        im = margins.im.values.T.tolist()
    else:
        im = [[0.0] * size] * len(grid)
    nodes = grid.tolist()
    T = nodes[-1]

    def rhs(seg, s, y):
        t0, t1 = nodes[seg], nodes[seg + 1]
        w = 0.0 if t1 == t0 else (T - s - t0) / (t1 - t0)
        return np.asarray(kernel(by_seg[seg], im[seg], im[seg + 1], w, y.tolist()))

    with np.errstate(over="ignore", invalid="ignore"):
        path = rk4_sweep(grid, np.zeros(_layout(cfg, variants)[1] * size), rhs)
    bad = ~np.isfinite(path)
    if bad.any():
        node = int(np.flatnonzero(bad.any(axis=0))[-1])  # the pass runs backwards
        row = int(np.flatnonzero(bad[:, node])[0])
        raise ConfigError(f"the lattice pass is not finite: {path[row, node]} in state "
                          f"{row % size} at t = {nodes[node]}")
    return path


def solve_clean(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
) -> LatticeSurface:
    """Clean value surface for every default state: the pass with no XVA column."""
    path = _joint_pass(cfg, model, portfolio, grid, space, None, ())
    return LatticeSurface(grid, space, path)


def solve_xva(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
    margins: MarginSchedule,
    variants: tuple[str, ...],
) -> tuple[LatticeSurface, dict[str, XvaResult]]:
    """Solves every requested variant jointly with the clean value, in one pass.

    Returns the clean surface of the pass and one result per variant, and
    settles ``margins`` (vm and m) on that clean surface.  The upper and
    lower results carry the regime selected at every node and, when
    mu_C_true is set, the pocket surface.  Every surface is a row block of
    the pass's array.
    """
    path = _joint_pass(cfg, model, portfolio, grid, space, margins, variants)

    def rows(block):
        return path[block * space.size:(block + 1) * space.size]

    clean = LatticeSurface(grid, space, rows(0))
    margins.settle(clean)
    _, theta_C = closeout_excess(
        clean.values, margins.m.values, portfolio.loss_investor, portfolio.loss_counterparty,
    )
    results = {}
    for which, block, pocket in _layout(cfg, variants)[0]:
        u = rows(block)
        result = results[which] = XvaResult(which, LatticeSurface(grid, space, u))
        if which == "actual":
            continue
        z_C = theta_C - u
        hi = (z_C > 0.0) == (which == "upper")
        result.regime = np.where(z_C == 0.0, REGIME_TIE, np.where(hi, REGIME_HI, REGIME_LO))
        if pocket is not None:
            result.pocket = LatticeSurface(grid, space, rows(pocket))
    return clean, results
