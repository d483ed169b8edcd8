"""Variation margin, VaR-based initial margin, and closeout values.

The total collateral is M = VM + IM with VM = alpha * v_hat (the clean value
already carries the portfolio direction) and IM = beta * (VaR_q of the
clean-value increment over the margin period delta)^+.  The single-name
increment law admits a closed form for constant intensities; for a
piecewise-constant intensity the quantile equation is solved exactly, at every
time of the grid in one call, by ``market.invert_hazard``: the program's one
inversion of the piecewise-linear cumulated hazard, which the Monte Carlo
sampler uses too.  Multi-name portfolios would need an empirical quantile,
which is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LatticeSurface, StateSpace, zero_surface
from .market import ConfigError, ContagionModel, PiecewiseTable, Portfolio, invert_hazard


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

def initial_margin_var(
    h_P,
    S: float,
    L: float,
    q: float,
    delta: float,
    beta: float,
    gamma: int,
    t: float | np.ndarray,
    T: float,
) -> float | np.ndarray:
    """Single-name VaR-based initial margin at each time t, a float or an array.

    ``h_P`` is the physical default intensity, a scalar or a PiecewiseTable.
    Let x be the time from t at which the cumulated hazard of h_P reaches
    -log q (inf when not before T), from one ``invert_hazard`` call over the
    table's pieces of [0, T], and delta_eff = min(delta, T - t).
    For gamma = -1 the margin is beta * K where K solves the quantile
    equation exp(-int_t^{t+((L-K)/S) ^ delta_eff} h_P) = q, that is
    K = L - S x when x is below min(L / S, delta_eff)^+ (delta_eff when
    S = 0), and 0 otherwise; the constant-intensity case with t < T - delta
    reduces to the closed form beta * (L + S log(q) / h_P) when
    q > exp(-h_P delta), and 0 otherwise.
    For gamma = +1 the adverse outcomes are capped by the spread paid over
    the window: the margin is beta * S * delta_eff unless a default within
    min(L / S, delta_eff) (delta_eff when S <= 0) has probability at least
    1 - q (x is not beyond it), and then it is 0.  t >= T gives 0.
    """
    if gamma not in (-1, 1):
        raise ValueError(f"gamma must be +1 or -1, got {gamma}")
    if isinstance(h_P, (int, float)):
        h_P = PiecewiseTable(breaks=(), values=((float(h_P),),))
    t = np.asarray(t, dtype=float)
    edges = np.array([b for b in h_P.breaks if 0.0 < b < T] + [T])
    h = np.array([h_P.at(a, 0) for a in (0.0, *edges[:-1])])
    x = invert_hazard(edges, h, t.reshape(-1), -np.log(q)).reshape(t.shape) - t
    delta_eff = np.minimum(delta, T - t)
    if gamma == -1:
        cap = delta_eff if S == 0.0 else np.maximum(np.minimum(L / S, delta_eff), 0.0)
        hit = (t < T) & (x < cap)
        k_star = L - S * np.where(hit, x, 0.0)  # x is inf where the hazard falls short
        im = np.where(hit, beta * np.where(0.0 > k_star, 0.0, k_star), 0.0)
    else:
        horizon = np.minimum(L / S, delta_eff) if S > 0.0 else delta_eff
        im = np.where((t < T) & (x > horizon), beta * (S * delta_eff), 0.0)
    return im[()]


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
        im.values[space.root()] = initial_margin_var(
            table, con.spread, con.loss, coll.q, coll.delta,
            coll.beta, con.direction, grid, portfolio.maturity,
        )
    return MarginSchedule(alpha=coll.alpha, im=im)

