"""Variation margin, VaR-based initial margin, and closeout values.

The total collateral is M = VM + IM with VM = alpha * v_hat (the clean value
already carries the portfolio direction) and IM = beta * (VaR_q of the
clean-value increment over the margin period delta)^+.  The single-name
increment law admits a closed form for constant intensities; for a
piecewise-constant intensity the quantile equation is solved exactly by
inverting the piecewise-linear cumulated hazard.  Multi-name portfolios would
need an empirical quantile, which is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LatticeSurface, StateSpace, zero_surface
from .market import ConfigError, ContagionModel, PiecewiseTable, Portfolio


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
    return LatticeSurface(v_hat.grid, v_hat.space, alpha * v_hat.values)


# ---------------------------------------------------------------------------
# Initial margin
# ---------------------------------------------------------------------------

def _pieces(table: PiecewiseTable, t0: float, t1: float):
    """(start, end, intensity) of each constant piece of ``table`` in [t0, t1],
    the intensity read at the start of the right-continuous piece."""
    edges = [t0] + [b for b in table.breaks if t0 < b < t1] + [t1]
    return [(a, b, table.at(a, 0)) for a, b in zip(edges, edges[1:])]


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


# ---------------------------------------------------------------------------
# Margin schedule
# ---------------------------------------------------------------------------

@dataclass
class MarginSchedule:
    """Collateral surfaces: vm, im and their sum m.

    The initial margin is a function of time and state only, so it is built
    before the lattice pass; the pass consumes ``alpha`` and ``im`` and
    recomputes the variation margin from each stage's clean value.  ``vm``
    and ``m`` are set from the solved clean surface by ``settle``.
    """

    alpha: float
    im: LatticeSurface
    vm: LatticeSurface | None = None
    m: LatticeSurface | None = None

    def settle(self, v_hat: LatticeSurface) -> None:
        """Sets vm = alpha * v_hat and m = vm + im, each one array operation."""
        self.vm = variation_margin(v_hat, self.alpha)
        self.m = LatticeSurface(v_hat.grid, v_hat.space, self.vm.values + self.im.values)


def margin_schedule(
    model_P: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
) -> MarginSchedule:
    """The collateral schedule on the lattice, before the clean value is known.

    Only the single-name initial margin has an analytic law; multi-name
    portfolios with beta > 0 would need an empirical quantile of the
    clean-value increment, which is not implemented, so they are refused.
    """
    coll = portfolio.collateral
    if coll.beta > 0.0 and portfolio.n > 1:
        raise ConfigError(
            "initial margin (beta > 0) is priced for single-name "
            "portfolios only; multi-name portfolios need an empirical "
            "VaR callback"
        )
    im = zero_surface(grid, space)
    if coll.beta > 0.0 and portfolio.n == 1:
        con = portfolio.contracts[0]
        table = model_P.table(1)
        # only the root state carries exposure: after the single reference
        # defaults there is nothing left to margin
        im.values[space.root()] = [
            initial_margin_var(
                table, con.spread, con.loss, coll.q, coll.delta,
                coll.beta, con.direction, t, portfolio.maturity,
            )
            for t in grid
        ]
    return MarginSchedule(alpha=coll.alpha, im=im)

