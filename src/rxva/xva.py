"""XVA ODE systems over the default lattice.

Three variants of the reduced XVA equation are solved in reversed time
s = T - t with zero initial data:

* ``actual``: the counterparty account grows at the true rate mu_C_true.
* ``upper``: at each integrator stage the band extreme maximizing the drift
  is selected, driven by the sign of theta_C_tilde - u (robust upper bound).
* ``lower``: the minimizing extreme (robust lower bound).

The clean value is integrated jointly with each variant so that every RK4
stage sees a consistent clean value and variation margin.  When the true
counterparty rate is known, the upper and lower solves also accumulate the
pocket surface: the time integral of the surplus rate
(mu_selected - mu_true) * (theta_C_tilde - u), which is the pathwise excess
earned by the super-replicating strategy while no default has occurred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clean import LatticeCoefficients
from .collateral import MarginSchedule
from .grids import LatticeSurface, StateSpace, rk4_sweep, zero_surface
from .market import ContagionModel, MarketConfig, Portfolio

REGIME_LO = 0
REGIME_HI = 1
REGIME_TIE = 2
REGIME_LABELS = {REGIME_LO: "LO", REGIME_HI: "HI", REGIME_TIE: "TIE"}

VARIANTS = ("actual", "upper", "lower")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def f_tilde(cfg: MarketConfig, xva, z, z_I, z_C, m, loss_sum):
    """Funding/collateral drift of the reduced XVA equation.

    ``z`` is the aggregated reference-default exposure, ``z_I``/``z_C`` the
    trading-party exposures, ``m`` the posted collateral and ``loss_sum`` the
    signed total loss notional of the surviving contracts.  Accepts scalars
    or aligned arrays.
    """
    y = xva + z + z_I + z_C + loss_sum - m
    y_pos = np.maximum(y, 0.0)
    y_neg = np.maximum(-y, 0.0)
    m_pos = np.maximum(m, 0.0)
    m_neg = np.maximum(-m, 0.0)
    return -(
        cfg.r_f_plus * y_pos
        - cfg.r_f_minus * y_neg
        - cfg.r_D * (z + z_I + z_C)
        + cfg.r_m_plus * m_pos
        - cfg.r_m_minus * m_neg
        - cfg.r_D * loss_sum
    )


def g_check(
    cfg: MarketConfig,
    L_I: float,
    L_C: float,
    u: float,
    children,
    h_children,
    h_I: float,
    h_C: float,
    v_hat: float,
    m: float,
    loss_sum: float,
) -> float:
    """Reduced XVA drift for one state, spelled out for verification use.

    ``children`` holds the XVA values of the states reachable by one more
    reference default and ``h_children`` the matching default intensities.
    """
    gap = v_hat - m
    t_I = -L_I * max(gap, 0.0)
    t_C = L_C * max(-gap, 0.0)
    z_I = t_I - u
    z_C = t_C - u
    child_sum = float(sum(children))
    z = child_sum - len(children) * u
    jump = sum(h * (uc - u) for h, uc in zip(h_children, children))
    return (
        h_I * z_I
        + h_C * z_C
        + jump
        + float(f_tilde(cfg, u, z, z_I, z_C, m, loss_sum))
    )


def switching_rate(
    cfg: MarketConfig, v_hat: float, m: float, u: float, mode: str, L_C: float = 1.0
) -> tuple[float, bool]:
    """Band extreme selected by the robust drivers.

    Upper mode picks mu_C_upper when theta_C_tilde(v_hat, m) - u >= 0 and
    mu_C_lower otherwise; lower mode swaps the extremes.  Returns the
    selected account rate and a tie flag raised at exact equality, where the
    multiplier vanishes and both extremes produce the same drift.
    """
    theta_c_tilde = L_C * max(-(v_hat - m), 0.0)
    return _switch_from_zc(cfg, theta_c_tilde, u, mode)


def _switch_from_zc(cfg, theta_c_tilde, u, mode):
    z_c = theta_c_tilde - u
    tie = z_c == 0.0
    if mode == "upper":
        mu = cfg.mu_C_upper if z_c >= 0.0 else cfg.mu_C_lower
    elif mode == "lower":
        mu = cfg.mu_C_lower if z_c >= 0.0 else cfg.mu_C_upper
    else:
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    return mu, tie


def resolve_true_h_c(cfg: MarketConfig, model: ContagionModel):
    """Callable (t, default count) -> true counterparty intensity, or None."""
    if cfg.mu_C_true is None:
        return None
    if cfg.mu_C_true == "model":
        return lambda t, count: model.intensity_by_count("C", t, count)
    h = float(cfg.mu_C_true) - cfg.r_D
    return lambda t, count: h


# ---------------------------------------------------------------------------
# Lattice solve
# ---------------------------------------------------------------------------

@dataclass
class XvaResult:
    which: str
    surface: LatticeSurface
    regime: dict[int, np.ndarray] | None = None
    pocket: LatticeSurface | None = None


def solve_xva(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
    margins: MarginSchedule,
    which: str,
) -> XvaResult:
    """Solves one XVA variant jointly with the clean value over the lattice."""
    if which not in VARIANTS:
        raise ValueError(f"which must be one of {VARIANTS}, got {which!r}")
    h_true = resolve_true_h_c(cfg, model)
    if which == "actual" and h_true is None:
        raise ValueError("the actual XVA solve requires mu_C_true in the config")
    coeffs = LatticeCoefficients(model, portfolio, space)
    size = space.size
    T = grid[-1]
    mids = 0.5 * (grid[:-1] + grid[1:])
    by_seg = coeffs.per_segment(mids)
    L_I, L_C = portfolio.loss_investor, portfolio.loss_counterparty
    alpha = margins.alpha
    r_D = cfg.r_D
    r_f_plus, r_f_minus = cfg.r_f_plus, cfg.r_f_minus
    r_m_plus, r_m_minus = cfg.r_m_plus, cfg.r_m_minus
    h_low = cfg.mu_C_lower - r_D
    h_high = cfg.mu_C_upper - r_D
    im_mat = np.stack([margins.im_values(k) for k in space.keys])
    has_im = bool(np.any(im_mat))
    im_list = im_mat.T.tolist()  # per node, per state
    track_pocket = which in ("upper", "lower") and h_true is not None

    if h_true is None:
        h_true_by_seg = None
    else:
        counts = [space.count(k) for k in space.keys]
        cache: dict[int, list] = {}
        h_true_by_seg = []
        for t_mid in mids:
            piece = int(np.searchsorted(coeffs.breaks, t_mid, side="right"))
            row = cache.get(piece)
            if row is None:
                row = [h_true(float(t_mid), c) for c in counts]
                cache[piece] = row
            h_true_by_seg.append(row)

    surface = zero_surface(grid, space, f"u_{which}")
    pocket = zero_surface(grid, space, "pocket") if track_pocket else None
    regime = (
        {k: np.zeros(len(grid), dtype=int) for k in space.keys}
        if which in ("upper", "lower")
        else None
    )

    n_comp = 3 * size if track_pocket else 2 * size
    upper_mode = which == "upper"
    actual_mode = which == "actual"

    def rhs(seg, s, y):
        states = by_seg[seg]
        yl = y.tolist()
        if has_im:
            t0, t1 = grid[seg], grid[seg + 1]
            w = 0.0 if t1 == t0 else (T - s - t0) / (t1 - t0)
            im0, im1 = im_list[seg], im_list[seg + 1]
        ht = h_true_by_seg[seg] if h_true_by_seg is not None else None
        out = [0.0] * n_comp
        for k in range(size):
            st = states[k]
            v_k = yl[k]
            u_k = yl[size + k]
            if has_im:
                m = alpha * v_k + im0[k] * (1.0 - w) + im1[k] * w
            else:
                m = alpha * v_k
            gap = v_k - m
            z_I = (-L_I * gap if gap > 0.0 else 0.0) - u_k
            z_C = (-L_C * gap if gap < 0.0 else 0.0) - u_k
            dv = -r_D * v_k - st.sum_S
            child_sum = 0.0
            jump = 0.0
            for child, rate, loss, count in st.transitions:
                v_c = yl[child]
                u_c = yl[size + child]
                dv += rate * (loss + v_c - v_k)
                child_sum += count * u_c
                jump += rate * (u_c - u_k)
            z = child_sum - st.alive_count * u_k
            if actual_mode:
                h_C = ht[k]
            elif upper_mode:
                h_C = h_high if z_C >= 0.0 else h_low
            else:
                h_C = h_low if z_C >= 0.0 else h_high
            y_f = u_k + z + z_I + z_C + st.sum_L - m
            f_val = (
                -(r_f_plus * y_f if y_f > 0.0 else r_f_minus * y_f)
                + r_D * (z + z_I + z_C)
                - (r_m_plus * m if m > 0.0 else r_m_minus * m)
                + r_D * st.sum_L
            )
            out[k] = dv
            out[size + k] = st.h_I * z_I + h_C * z_C + jump + f_val
            if track_pocket:
                out[2 * size + k] = (h_C - ht[k]) * z_C
        return np.asarray(out)

    def record(node, y):
        v = y[:size]
        u = y[size : 2 * size]
        for k in space.keys:
            surface.values[k][node] = u[k]
            if track_pocket:
                pocket.values[k][node] = y[2 * size + k]
        if regime is not None:
            t = grid[node]
            im_node = im_mat[:, node]
            m = alpha * v + im_node
            z_C = L_C * np.maximum(-(v - m), 0.0) - u
            for k in space.keys:
                if z_C[k] == 0.0:
                    regime[k][node] = REGIME_TIE
                elif (z_C[k] > 0.0) == (which == "upper"):
                    regime[k][node] = REGIME_HI
                else:
                    regime[k][node] = REGIME_LO

    rk4_sweep(grid, np.zeros(n_comp), rhs, record)
    return XvaResult(which=which, surface=surface, regime=regime, pocket=pocket)


# ---------------------------------------------------------------------------
# Direct value-level solve (verification path)
# ---------------------------------------------------------------------------

def solve_value_direct(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    margins: MarginSchedule,
) -> LatticeSurface:
    """Single-name replication value from the unreduced drift.

    Solves the ODE for the full replication price U-bar whose drift carries
    the contract spread and the un-netted closeout values theta_I, theta_C;
    subtracting the clean value must reproduce the actual XVA.  Requires
    mu_C_true and a single reference entity.
    """
    if portfolio.n != 1:
        raise ValueError("the direct value solve is single-name only")
    h_true = resolve_true_h_c(cfg, model)
    if h_true is None:
        raise ValueError("the direct value solve requires mu_C_true")
    con = portfolio.contracts[0]
    gamma = con.direction
    L_I, L_C = portfolio.loss_investor, portfolio.loss_counterparty
    alpha = margins.alpha
    space = StateSpace(n=1, homogeneous=False)
    im0 = margins.im_values(0)
    T = grid[-1]
    mids = 0.5 * (grid[:-1] + grid[1:])
    surface = zero_surface(grid, space, "u_bar")

    def rhs(seg, s, y):
        t_mid = mids[seg]
        v, u_bar = y
        t = T - s
        t0, t1 = grid[seg], grid[seg + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        m = alpha * v + (im0[seg] * (1.0 - w) + im0[seg + 1] * w)
        gap = v - m
        theta_I = v - L_I * max(gap, 0.0)
        theta_C = v + L_C * max(-gap, 0.0)
        h_1 = model.intensity_by_count(1, t_mid, 0)
        h_I = model.intensity_by_count("I", t_mid, 0)
        h_C = h_true(t_mid, 0)
        gL, gS = gamma * con.loss, gamma * con.spread
        dv = -cfg.r_D * v - gS + h_1 * (gL + 0.0 - v)
        z_1 = gL - u_bar
        z_I = theta_I - u_bar
        z_C = theta_C - u_bar
        y_f = u_bar + z_1 + z_I + z_C - m
        f_val = -(
            cfg.r_f_plus * max(y_f, 0.0)
            - cfg.r_f_minus * max(-y_f, 0.0)
            - cfg.r_D * (z_1 + z_I + z_C)
            + cfg.r_m_plus * max(m, 0.0)
            - cfg.r_m_minus * max(-m, 0.0)
            + gS
        )
        du = h_I * z_I + h_C * z_C + h_1 * z_1 + f_val
        return np.array([dv, du])

    def record(node, y):
        surface.values[0][node] = y[1]
        surface.values[1][node] = 0.0

    rk4_sweep(grid, np.zeros(2), rhs, record)
    return surface


# ---------------------------------------------------------------------------
# Robust XVA process
# ---------------------------------------------------------------------------

@dataclass
class RXvaProcess:
    """Queryable robust XVA path description.

    Before the first trading-party default the process equals the upper
    surface in the prevailing default state; at that default it settles into
    the collateral-netted closeout value and stays constant.
    """

    upper: LatticeSurface
    v_hat: LatticeSurface
    m: LatticeSurface
    L_I: float
    L_C: float

    def _check(self, t: float):
        if t < 0.0 or t > self.upper.grid[-1] + 1e-12:
            raise ValueError(f"query time {t} outside [0, T]")

    def value(self, t: float, key: int) -> float:
        """rXVA prior to any trading-party default, in state ``key``."""
        self._check(t)
        return self.upper.at(key, t)

    def closeout(self, party: str, t: float, key: int) -> float:
        """Settlement value if ``party`` ('I' or 'C') defaults first at t."""
        self._check(t)
        v = self.v_hat.at(key, t)
        m = self.m.at(key, t)
        gap = v - m
        if party == "I":
            return -self.L_I * max(gap, 0.0)
        if party == "C":
            return self.L_C * max(-gap, 0.0)
        raise ValueError(f"party must be 'I' or 'C', got {party!r}")


def assemble_rxva(
    upper: LatticeSurface, v_hat: LatticeSurface, m: LatticeSurface, portfolio: Portfolio
) -> RXvaProcess:
    return RXvaProcess(
        upper=upper,
        v_hat=v_hat,
        m=m,
        L_I=portfolio.loss_investor,
        L_C=portfolio.loss_counterparty,
    )
