"""Replication and super-replication holdings of every state at grid nodes.

Holdings are quoted as position values (shares times account price, the
quantity the exported tables carry), one array over the states per node, read
from the nodes' columns of each surface.  Identities maintained here:

* wealth: sum of all position values minus the collateral account equals the
  replicated surface value;
* collateral: psi_m * B_m = -M at all times;
* drift: the position-implied wealth drift equals the negative XVA drift
  plus the nonnegative surplus rate of the robust selection.
"""

from __future__ import annotations

import numpy as np

from .collateral import closeout_excess
from .grids import StateSpace
from .market import MarketConfig, Portfolio


def robust_strategy(
    space: StateSpace,
    u_surface: np.ndarray,
    v_hat: np.ndarray,
    m_surface: np.ndarray,
    portfolio: Portfolio,
    nodes,
) -> tuple[np.ndarray, ...]:
    """Holdings that replicate the XVA surface ``u_surface`` in every state at grid ``nodes``.

    Built from the upper surface they super-replicate, from the lower one
    they sub-replicate, and from the actual one they replicate.  Returns
    ``(xi_ref, alive, xi_I, xi_C, xi_f, psi_m)``: ``xi_ref[key, i - 1]`` is
    the position in the account of name i, u - u_child for its class's move
    where ``alive[key, i - 1]``, and 0 once the name has defaulted; the other
    four hold one position per state.  An index array ``nodes``, in place of
    one grid index, puts a leading node axis on every array but ``alive``.
    """
    u, v, m = u_surface[:, nodes].T, v_hat[:, nodes].T, m_surface[:, nodes].T
    theta_I, theta_C = closeout_excess(v, m, portfolio.loss_investor,
                                       portfolio.loss_counterparty)
    keys = np.arange(space.size)
    alive = np.zeros((space.size, space.n), dtype=bool)
    xi_ref = np.zeros((*u.shape, space.n))
    for c, stride, defaults in zip(space.classes, space.strides, space.digits(keys)):
        names = np.array(c) - 1
        alive[:, names] = np.arange(len(c)) < len(c) - defaults[:, None]
        drop = u - u.take(keys + stride, -1, mode="clip")  # read only where a name survives
        xi_ref[..., names] = np.where(alive[:, names], drop[..., None], 0.0)
    xi_f = -u - sum(np.moveaxis(xi_ref, -1, 0)) + theta_C + theta_I - m
    return xi_ref, alive, -theta_I + u, -theta_C + u, xi_f, -m


def wealth_drift(
    cfg: MarketConfig,
    portfolio: Portfolio,
    holdings: tuple[np.ndarray, ...],
    mu: np.ndarray,
    mu_C_true: np.ndarray,
) -> np.ndarray:
    """Instantaneous wealth growth of ``robust_strategy``'s holdings under the true rate.

    ``mu[..., key, :]`` holds the account rates mu = h + r_D of state ``key``:
    the investor's, then those of names 1..N; ``mu_C_true`` holds the true
    counterparty rate per state, both with the holdings' node axis.  Accounts
    for the defaultable-account drifts at those rates, the sign-dependent
    treasury rate on the funding balance (which finances the surviving loss
    notionals on top of the funding account itself), and the collateral
    remuneration.  The collateral is read from the holdings: psi_m * B_m = -M.
    """
    xi_ref, alive, xi_I, xi_C, xi_f, psi_m = holdings
    m = -psi_m
    loss_sum = sum((alive * [c.direction * c.loss for c in portfolio.contracts]).T)
    drift = sum(np.moveaxis(xi_ref * mu[..., 1:], -1, 0)) + xi_I * mu[..., 0] + xi_C * mu_C_true
    y = xi_f + loss_sum
    drift += cfg.r_f_plus * np.maximum(y, 0.0) - cfg.r_f_minus * np.maximum(-y, 0.0)
    drift += -cfg.r_D * loss_sum
    drift += cfg.r_m_plus * np.maximum(m, 0.0) - cfg.r_m_minus * np.maximum(-m, 0.0)
    return drift
