"""Independent references the tests check the engine against.

Each one computes a value the engine also produces, by another method: the
clean value and the initial margin in closed form, the single-name
replication value from its unreduced drift, the lattice right-hand side and
pass as a loop over the states, with RK4 on numpy arrays (``rk4_sweep``),
the wealth of the holdings at a grid node, a monotonicity test for the sweep
columns, and the Monte Carlo oracle's surface reads by np.interp
(``interp_at``).  None of them is used by the program, nor is
``lattice_rhs``, the pass's step run as one stage, which the tests of the
step call.
"""

from __future__ import annotations

import numpy as np

from rxva.collateral import MarginSchedule, closeout_excess
from rxva.market import ContagionModel, MarketConfig, PiecewiseTable, Portfolio
from rxva.xva import VARIANTS, _binder, _layout, lattice_coefficients, resolve_true_h_c


def clean_closed_form_single(
    r_D: float,
    h_table,
    S: float,
    L: float,
    T: float,
    t: float,
    direction: int = 1,
) -> float:
    """Exact single-name clean value from the integral representation.

    v(t) = direction * int_t^T (h(u) L - S) exp(-int_t^u (h + r_D)) du,
    evaluated piece by piece with exponential primitives (no quadrature
    error for piecewise-constant h).  ``h_table`` is a PiecewiseTable or a
    (breaks, values) pair of flat sequences.
    """
    if not isinstance(h_table, PiecewiseTable):
        breaks, values = h_table
        h_table = PiecewiseTable(
            breaks=tuple(float(b) for b in breaks),
            values=tuple((float(v),) for v in values),
        )
    if t >= T:
        return 0.0
    edges = [t] + [b for b in h_table.breaks if t < b < T] + [T]
    total = 0.0
    discount = 1.0
    for a, b in zip(edges, edges[1:]):
        h = h_table.at(0.5 * (a + b), 0)
        rate = h + r_D
        width = b - a
        if rate == 0.0:
            piece = (h * L - S) * width
        else:
            piece = (h * L - S) * (1.0 - np.exp(-rate * width)) / rate
        total += discount * piece
        discount *= np.exp(-rate * width)
    return direction * total


def initial_margin_closed_form(
    h_P: float, S: float, L: float, q: float, delta: float, beta: float
) -> float:
    """Constant-intensity closed form for gamma = -1 and t < T - delta."""
    if q > np.exp(-h_P * delta):
        return beta * (L + S * np.log(q) / h_P)
    return 0.0


def solve_value_direct(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    margins: MarginSchedule,
) -> np.ndarray:
    """Single-name replication value from the unreduced drift, a (2 x nodes) surface.

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
    im0 = margins.im[0]
    T = grid[-1]
    mids = 0.5 * (grid[:-1] + grid[1:])

    def rhs(seg, s, y):
        t_mid = mids[seg]
        v, u_bar = y
        t = T - s
        t0, t1 = grid[seg], grid[seg + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        m = alpha * v + (im0[seg] * (1.0 - w) + im0[seg + 1] * w)
        theta_I, theta_C = closeout_excess(v, m, L_I, L_C)
        theta_I, theta_C = v + theta_I, v + theta_C
        h_1 = model.table(1).at(t_mid, 0)
        h_I = model.table("I").at(t_mid, 0)
        h_C = h_true.at(t_mid, 0)
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

    u_bar = rk4_sweep(grid, np.zeros(2), rhs)[1]
    return np.stack([u_bar, np.zeros_like(u_bar)])


def rk4_sweep(grid: np.ndarray, y0: np.ndarray, rhs) -> np.ndarray:
    """Classical fixed-step RK4 in reversed time s = T - t.

    ``rhs(seg, s, y)`` returns dy/ds, where ``seg`` is the index of the
    calendar segment being crossed (segments are traversed from the last to
    the first).  Returns the (len(y0) x nodes) solution on the calendar
    grid: column ``j`` holds y at ``grid[j]``, and the last column is ``y0``.
    """
    nodes = grid.tolist()  # times as floats, so rhs does no numpy scalar arithmetic
    T = nodes[-1]
    y = y0.astype(float)
    path = np.empty((len(y), len(nodes)))
    path[:, -1] = y
    for j in range(len(nodes) - 1, 0, -1):
        seg = j - 1
        s0 = T - nodes[j]
        h = nodes[j] - nodes[j - 1]
        k1 = rhs(seg, s0, y)
        k2 = rhs(seg, s0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(seg, s0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(seg, s0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[:, j - 1] = y
    return path


def lattice_rhs(
    cfg: MarketConfig,
    portfolio: Portfolio,
    size: int,
    alpha: float,
    variants: tuple[str, ...] = (),
):
    """dy/ds of the joint clean/XVA system on one constant-coefficient piece.

    ``y`` holds blocks of ``size`` values, one per lattice state in key
    order: the clean value, then one block per entry of ``variants``, then,
    when mu_C_true is set, one pocket block per upper or lower variant.
    Returns ``bind(states) -> rhs(im0, im1, w, y) -> list``, where ``states``
    is a coefficient bundle, ``im0``/``im1`` the initial margin of each state
    at the two ends of the segment and ``w`` the position of the stage
    between them.  The true counterparty intensity is the bundle's ``h_C``.
    ``rhs`` is the generated RK4 step of the pass (see
    ``xva._kernel_source``), without the folds of a pass, run as one stage
    of weight 1 from a base of -0.0, which returns the slope bit for bit.
    """
    bind_step = _binder(cfg, portfolio, size, alpha, variants)
    base = [-0.0] * (size * _layout(cfg, variants)[1])

    def bind(states):
        step = bind_step(states)
        return lambda im0, im1, w, y: step(im0, im1, ((w, 1.0, None),), 1.0, y, base)

    return bind


def loop_lattice_rhs(
    cfg: MarketConfig,
    portfolio: Portfolio,
    size: int,
    alpha: float,
    variants: tuple[str, ...] = (),
):
    """``lattice_rhs`` as a plain loop over states, moves and blocks.

    The scalar driver the generated kernels unroll: same arguments, same
    ``rhs(states, im0, im1, w, y) -> list``, and the same float operations
    in the same order, so the two must agree bit for bit.
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


def loop_pass(cfg, model, portfolio, grid, space, margins, variants) -> np.ndarray:
    """``xva._joint_pass`` as ``rk4_sweep`` on ``loop_lattice_rhs``, without the
    finiteness check: the generated step must match it byte for byte."""
    size = space.size
    kernel = loop_lattice_rhs(cfg, portfolio, size, margins.alpha, variants)
    index, bundles = lattice_coefficients(cfg, model, portfolio, space,
                                          0.5 * (grid[:-1] + grid[1:]))
    im = margins.im.T.tolist()
    nodes = grid.tolist()
    T = nodes[-1]

    def rhs(seg, s, y):
        t0, t1 = nodes[seg], nodes[seg + 1]
        w = 0.0 if t1 == t0 else (T - s - t0) / (t1 - t0)
        return np.asarray(kernel(bundles[index[seg]], im[seg], im[seg + 1], w, y.tolist()))

    with np.errstate(over="ignore", invalid="ignore"):
        return rk4_sweep(grid, np.zeros(_layout(cfg, variants)[1] * size), rhs)


def wealth(holdings) -> np.ndarray:
    """Total portfolio value of each state carried by ``robust_strategy``'s
    holdings at a node: every position less the collateral account."""
    xi_ref, _, xi_I, xi_C, xi_f, psi_m = holdings
    return xi_ref.sum(axis=1) + xi_I + xi_C + xi_f - psi_m


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


def interp_at(grid: np.ndarray, surfaces, keys: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """``np.interp(t, grid, surface[key])`` of each surface on ``grid`` for
    paired arrays, one np.interp per surface and distinct key: the reference
    for ``oracle._at``."""
    out = [np.empty(len(times)) for _ in surfaces]
    for key in np.unique(keys).tolist():
        sel = keys == key
        for values, surface in zip(out, surfaces):
            values[sel] = np.interp(times[sel], grid, surface[key])
    return out
