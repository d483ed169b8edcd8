"""Replication and super-replication holdings at a grid node and state.

Holdings are quoted as position values (shares times account price, the
quantity the exported tables carry).  Identities maintained here:

* wealth: sum of all position values minus the collateral account equals the
  replicated surface value;
* collateral: psi_m * B_m = -M at all times;
* drift: the position-implied wealth drift equals the negative XVA drift
  plus the nonnegative surplus rate of the robust selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collateral import closeout_excess
from .grids import LatticeSurface
from .market import ContagionModel, MarketConfig, Portfolio


@dataclass(frozen=True)
class StrategySnapshot:
    """Holdings at one (time, state) point.

    ``xi_ref_values[i]`` is the position value in the account of surviving
    entity i (1-based ids in ``alive``).
    """

    t: float
    state: int
    alive: tuple[int, ...]
    xi_ref_values: dict[int, float]
    xi_I_value: float
    xi_C_value: float
    xi_f_value: float
    psi_m_value: float

    def wealth(self) -> float:
        """Total portfolio value carried by the holdings."""
        return (
            sum(self.xi_ref_values.values())
            + self.xi_I_value
            + self.xi_C_value
            + self.xi_f_value
            - self.psi_m_value
        )


def robust_strategy(
    u_surface: LatticeSurface,
    v_hat: LatticeSurface,
    m_surface: LatticeSurface,
    portfolio: Portfolio,
    t: float,
    key: int,
) -> StrategySnapshot:
    """Holdings that replicate the XVA surface ``u_surface`` at (t, key).

    Built from the upper surface they super-replicate, from the lower one
    they sub-replicate, and from the actual one they replicate.
    """
    space = u_surface.space
    u = u_surface.at(key, t)
    v = v_hat.at(key, t)
    m = m_surface.at(key, t)
    theta_I, theta_C = closeout_excess(v, m, portfolio.loss_investor,
                                       portfolio.loss_counterparty)
    ref_vals = {}
    for child, entities in space.moves(key):
        ref_vals.update(dict.fromkeys(entities, u - u_surface.at(child, t)))
    alive = tuple(ref_vals)
    xi_I_value = float(-theta_I + u)
    xi_C_value = float(-theta_C + u)
    psi_m_value = -m
    xi_f_value = float(-u - sum(ref_vals.values()) + theta_C + theta_I - m)
    return StrategySnapshot(
        t=t,
        state=key,
        alive=alive,
        xi_ref_values=ref_vals,
        xi_I_value=xi_I_value,
        xi_C_value=xi_C_value,
        xi_f_value=xi_f_value,
        psi_m_value=psi_m_value,
    )


def wealth_drift(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    snapshot: StrategySnapshot,
    m: float,
    mu_C_true: float,
    t: float,
    count: int,
) -> float:
    """Instantaneous wealth growth of the holdings under the true rate.

    Accounts for the defaultable-account drifts at their account rates
    mu = h + r_D, the sign-dependent treasury rate on the funding balance
    (which finances the surviving loss notionals on top of the funding
    account itself), and the collateral remuneration.
    """
    loss_sum = sum(
        portfolio.contracts[i - 1].direction * portfolio.contracts[i - 1].loss
        for i in snapshot.alive
    )
    mu_I = model.intensity_by_count("I", t, count) + cfg.r_D
    drift = 0.0
    for i in snapshot.alive:
        mu_i = model.intensity_by_count(i, t, count) + cfg.r_D
        drift += snapshot.xi_ref_values[i] * mu_i
    drift += snapshot.xi_I_value * mu_I
    drift += snapshot.xi_C_value * mu_C_true
    y = snapshot.xi_f_value + loss_sum
    drift += cfg.r_f_plus * max(y, 0.0) - cfg.r_f_minus * max(-y, 0.0)
    drift += -cfg.r_D * loss_sum
    drift += cfg.r_m_plus * max(m, 0.0) - cfg.r_m_minus * max(-m, 0.0)
    return drift
