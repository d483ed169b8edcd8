"""Variation margin, VaR-based initial margin, and closeout values.

The total collateral is M = VM + IM with VM = alpha * v_hat (the clean value
already carries the portfolio direction) and IM = beta * (VaR_q of the
clean-value increment over the margin period delta)^+.  The single-name
increment law admits a closed form for constant intensities; for a
piecewise-constant intensity the quantile equation is solved exactly by
inverting the piecewise-linear cumulated hazard.  Multi-name portfolios need
an empirical quantile callback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LatticeSurface, zero_surface
from .market import ConfigError, ContagionModel, MarketConfig, PiecewiseTable, Portfolio


# ---------------------------------------------------------------------------
# Closeout values
# ---------------------------------------------------------------------------

def closeout_excess(v_hat, m, L_I: float, L_C: float):
    """Collateral-netted closeout values at the first trading-party default.

    Returns (theta_I_tilde, theta_C_tilde), elementwise over scalars or
    aligned arrays; the full settlement values are theta = v_hat + theta_tilde:

        theta_I_tilde = -L_I (v - m)^+        theta_C_tilde = L_C (v - m)^-

    ``np.where(0.0 > x, 0.0, x)`` is ``max(x, 0.0)`` including the sign of
    zero, so the values match the scalar formula bit for bit.
    """
    gap = v_hat - m
    return -L_I * np.where(0.0 > gap, 0.0, gap), L_C * np.where(0.0 > -gap, 0.0, -gap)


# ---------------------------------------------------------------------------
# Variation margin
# ---------------------------------------------------------------------------

def variation_margin(v_hat: LatticeSurface, alpha: float) -> LatticeSurface:
    """VM surface: alpha * v_hat nodewise."""
    out = zero_surface(v_hat.grid, v_hat.space, "vm")
    for k in v_hat.space.keys:
        out.values[k] = alpha * v_hat.values[k]
    return out


# ---------------------------------------------------------------------------
# Initial margin
# ---------------------------------------------------------------------------

def _pieces(table: PiecewiseTable, t0: float, t1: float):
    """(start, end, intensity) of each constant piece of ``table`` in [t0, t1]."""
    edges = [t0] + [b for b in table.breaks if t0 < b < t1] + [t1]
    return [(a, b, table.at(0.5 * (a + b), 0)) for a, b in zip(edges, edges[1:])]


def _cum_hazard(table: PiecewiseTable, t0: float, t1: float) -> float:
    """Integral of a piecewise-constant intensity over [t0, t1]."""
    if t1 <= t0:
        return 0.0
    return sum(h * (b - a) for a, b, h in _pieces(table, t0, t1))


def _hazard_horizon(table: PiecewiseTable, t0: float, t1: float, target: float) -> float:
    """Shortest h with int_t0^{t0+h} table = target, over the pieces of [t0, t1].

    The cumulated hazard is piecewise linear in h, so the crossing is exact
    on the piece where it happens; t1 - t0 when rounding leaves the target
    just out of reach.
    """
    acc = 0.0
    for a, b, h in _pieces(table, t0, t1):
        mass = h * (b - a)
        if h > 0.0 and acc + mass >= target:
            return a - t0 + (target - acc) / h
        acc += mass
    return t1 - t0


def initial_margin_var(
    h_P,
    S: float,
    L: float,
    q: float,
    delta: float,
    beta: float,
    gamma: int,
    t: float,
    T: float,
) -> float:
    """Single-name VaR-based initial margin at time t.

    ``h_P`` is the physical default intensity, a scalar or a PiecewiseTable.
    For gamma = -1 the margin is beta * K where K solves the quantile
    equation exp(-int_t^{t+((L-K)/S) ^ delta_eff} h_P) = q, that is
    K = L - S * Lambda^{-1}(-log q) with Lambda the cumulated hazard from t;
    the constant-intensity case with t < T - delta reduces to the closed form
    beta * (L + S log(q) / h_P) when q > exp(-h_P delta), and 0 otherwise.
    For gamma = +1 the adverse outcomes are capped by the spread paid over
    the window: the margin is beta * S * delta_eff unless a default within
    min(L / S, delta_eff) has probability at least 1 - q, and then it is 0.
    """
    if isinstance(h_P, (int, float)):
        h_P = PiecewiseTable(breaks=(), values=((float(h_P),),))
    if t >= T:
        return 0.0
    delta_eff = min(delta, T - t)
    if gamma == -1:
        if np.exp(-_cum_hazard(h_P, t, t + delta_eff)) >= q:
            return 0.0
        if S == 0.0:
            # the loss leg alone drives the increment; the quantile sits at L
            return beta * max(L, 0.0)
        if np.exp(-_cum_hazard(h_P, t, t + max(min(L / S, delta_eff), 0.0))) >= q:
            return 0.0
        k_star = L - S * _hazard_horizon(h_P, t, t + delta_eff, -np.log(q))
        return beta * max(k_star, 0.0)
    if gamma == 1:
        horizon = min(L / S, delta_eff) if S > 0.0 else delta_eff
        if 1.0 - np.exp(-_cum_hazard(h_P, t, t + horizon)) >= 1.0 - q:
            return 0.0
        return beta * (S * delta_eff)
    raise ValueError(f"gamma must be +1 or -1, got {gamma}")


def initial_margin_closed_form(
    h_P: float, S: float, L: float, q: float, delta: float, beta: float
) -> float:
    """Constant-intensity closed form for gamma = -1 and t < T - delta."""
    if q > np.exp(-h_P * delta):
        return beta * (L + S * np.log(q) / h_P)
    return 0.0


# ---------------------------------------------------------------------------
# Margin schedule
# ---------------------------------------------------------------------------

@dataclass
class MarginSchedule:
    """Collateral surfaces: vm, im and their sum m, plus the solver view.

    ``alpha`` and the IM node arrays are what the XVA solver consumes: the
    variation component is recomputed from the stage clean value during
    integration, while the IM component is a function of time only.
    """

    vm: LatticeSurface
    im: LatticeSurface
    m: LatticeSurface
    alpha: float

    def im_values(self, key: int) -> np.ndarray:
        return self.im.values[key]


def margin_schedule(
    cfg: MarketConfig,
    model_P: ContagionModel,
    portfolio: Portfolio,
    v_hat: LatticeSurface,
    mc_var=None,
) -> MarginSchedule:
    """Builds the full collateral schedule on the clean-value grid.

    Multi-name initial margins require an empirical quantile callback
    ``mc_var(t, state_key) -> VaR value``; without one (and with beta > 0 and
    N > 1) the single-name analytic law cannot be applied and an error is
    raised.
    """
    coll = portfolio.collateral
    space = v_hat.space
    grid = v_hat.grid
    vm = variation_margin(v_hat, coll.alpha)
    im = zero_surface(grid, space, "im")
    if coll.beta > 0.0 and portfolio.n > 0:
        if portfolio.n == 1:
            con = portfolio.contracts[0]
            table = _physical_table(model_P)
            for key in space.keys:
                if space.count(key) >= 1:
                    continue  # the single reference defaulted: no exposure
                im.values[key] = np.array([
                    initial_margin_var(
                        table, con.spread, con.loss, coll.q, coll.delta,
                        coll.beta, con.direction, t, portfolio.maturity,
                    )
                    for t in grid
                ])
        else:
            if mc_var is None:
                raise ConfigError(
                    "initial margin (beta > 0) is priced for single-name "
                    "portfolios only; multi-name portfolios need an empirical "
                    "VaR callback"
                )
            for key in space.keys:
                if space.count(key) >= portfolio.n:
                    continue
                im.values[key] = np.array([
                    coll.beta * max(mc_var(t, key), 0.0) for t in grid
                ])
    m = zero_surface(grid, space, "m")
    for key in space.keys:
        m.values[key] = vm.values[key] + im.values[key]
    return MarginSchedule(vm=vm, im=im, m=m, alpha=coll.alpha)


def _physical_table(model_P: ContagionModel) -> PiecewiseTable:
    if model_P.general_mode:
        return model_P.reference_tables[0]
    return PiecewiseTable(breaks=(), values=((model_P.a30,),))
