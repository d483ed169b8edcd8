"""Clean value and XVA over the default lattice, in one RK4 pass.

The clean value surface solves, in reversed time s = T - t and for every
default state J,

    dv/ds = -r_D v - sum_{i alive} S_i + sum_{i alive} h_i (L_i + v_child - v)

with v = 0 at s = 0 and v identically zero once all entities have defaulted.
Spreads and losses carry the contract direction sign.  Three variants of
the reduced XVA equation are solved in the same time with zero initial data:

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

import math
from collections import namedtuple
from collections.abc import Callable
from functools import partial

import numpy as np

from .collateral import MarginSchedule, closeout_excess
from .grids import StateSpace
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
# Lattice coefficients and right-hand side
# ---------------------------------------------------------------------------

StateCoeffs = namedtuple("StateCoeffs", "sum_S sum_L h_I h_C alive_count transitions")
StateCoeffs.__doc__ = """Coefficients of one default state on one constant-coefficient piece.

``transitions`` lists the one-default moves out of the state as tuples
``(child, rate, loss, count)``: the target state, the aggregate intensity
of the move, the signed loss paid on it, and the number of contracts it
retires (see ``StateSpace.moves``).  ``h_C`` is the true counterparty
intensity (see ``resolve_true_h_c``), NaN when the config does not give one.
"""


def lattice_coefficients(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    space: StateSpace,
    times: np.ndarray,
) -> tuple[list[int], list[tuple[StateCoeffs, ...]]]:
    """Coefficient bundles of the lattice over the float array ``times``.

    A bundle is the tuple of StateCoeffs of every lattice state in key
    order.  Coefficients are piecewise constant in time, so there is one
    bundle per piece of the model's breaks that ``times`` meets, built at
    the first of its times.  Returns ``(index, bundles)``: the bundle of
    ``times[i]`` is ``bundles[index[i]]``.
    """
    h_C_true = resolve_true_h_c(cfg, model)  # its breaks are among the model's
    pieces = np.searchsorted(np.asarray(model.breakpoints()), times, side="right").tolist()
    first = {}  # piece -> its first time, in order of appearance
    for piece, t in zip(pieces, times.tolist()):
        first.setdefault(piece, t)
    order = {piece: i for i, piece in enumerate(first)}
    bundles = [tuple(_state_coeffs(model, portfolio, space, h_C_true, t, key)
                     for key in space.keys) for t in first.values()]
    return [order[piece] for piece in pieces], bundles


def _state_coeffs(model, portfolio, space, h_C_true, t: float, key: int) -> StateCoeffs:
    count = space.count(key)
    sum_S = sum_L = 0.0
    transitions = []
    for child, entities in space.moves(key):
        w = len(entities)  # the entities of one move share contract and rate
        con = portfolio.contracts[entities[0] - 1]
        sum_S += w * con.direction * con.spread
        sum_L += w * con.direction * con.loss
        h = model.table(entities[0]).at(t, count)
        transitions.append((child, w * h, con.direction * con.loss, w))
    return StateCoeffs(
        sum_S=sum_S, sum_L=sum_L,
        h_I=model.investor.at(t, count),
        h_C=math.nan if h_C_true is None else h_C_true.at(t, count),
        alive_count=portfolio.n - count, transitions=tuple(transitions),
    )


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


def _same(a: float, b: float) -> bool:
    """Whether two numbers are one float, zeros of both signs told apart."""
    return float(a) == float(b) and math.copysign(1.0, a) == math.copysign(1.0, b)


def _binder(cfg, portfolio, size: int, alpha: float, variants,
            zero_im: frozenset = frozenset()):
    """``bind(states)``: the generated RK4 step (see ``_kernel_source``),
    compiled once per lattice shape, with one bundle's coefficients bound
    as floats.

    ``zero_im`` is given by a pass that starts from zero: the states whose
    initial margin is +0.0 at every node.  The step then leaves out the
    initial margin of those states and the whole body of an absorbed state
    among them, whose every column stays +0.0.  With none given the step
    takes any ``y`` and initial margin.
    """
    if any(which not in VARIANTS for which in variants):
        raise ValueError(f"variants must be drawn from {VARIANTS}, got {variants!r}")
    if cfg.mu_C_true is None and "actual" in variants:
        raise ValueError("the actual XVA solve requires mu_C_true in the config")
    r_D = cfg.r_D
    h_low, h_high = cfg.counterparty_band_rates()
    rates = (-r_D, r_D, alpha, -portfolio.loss_investor, -portfolio.loss_counterparty,
             cfg.r_f_plus, cfg.r_f_minus, cfg.r_m_plus, cfg.r_m_minus, h_low, h_high)
    one_rate = (_same(cfg.r_f_plus, cfg.r_f_minus), _same(cfg.r_m_plus, cfg.r_m_minus))
    layout, n_blocks = _layout(cfg, variants)
    steps = {}  # children of every state -> the step compiled for that shape

    def bind(states):
        if len(states) != size:
            raise ValueError(f"a bundle of {len(states)} states for a lattice of {size}")
        shape = tuple(tuple(move[0] for move in st.transitions) for st in states)
        if shape not in steps:
            # the flags are fixed for this binder, so the shape alone keys its steps
            namespace = {}
            source = _kernel_source(shape, layout, n_blocks, zero_im, one_rate)
            exec(compile(source, "<lattice step>", "exec"), namespace)
            steps[shape] = namespace["step"]
        coeffs = list(rates)  # in the order of _RATES, _STATE_COEFFS and _MOVE_COEFFS
        for st in states:
            coeffs += (st.sum_S, st.sum_L, st.h_I, st.h_C, st.alive_count, r_D * st.sum_L)
            for _child, rate, loss, count in st.transitions:
                coeffs += (rate, loss, count)
        # floats only: an int or np.float64 operand makes CPython's arithmetic slower
        return partial(steps[shape], tuple(map(float, coeffs)))

    return bind


# The reduced XVA driver and the band-switching rule, as kernel source.  This
# is their only copy.  Coefficients: nrD = -r_D, A = alpha, nLI = -L_I,
# nLC = -L_C, hL/hH the band's counterparty intensities; per state k, S the
# spread sum, sL the loss sum, hI, hC the true counterparty intensity, n the
# contracts alive and rL = r_D * sL; per move j, R the rate, L the loss and c
# the contracts retired.  v{k} is the clean value and u{b}_{k} the value of
# variant block b.
_RATES = "nrD, rD, A, nLI, nLC, rfp, rfm, rmp, rmm, hL, hH"
_STATE_COEFFS = "S{k}, sL{k}, hI{k}, hC{k}, n{k}, rL{k}"
_MOVE_COEFFS = "R{k}_{j}, L{k}_{j}, c{k}_{j}"
_CLEAN = "d{k} = nrD * v{k} - S{k}{moves}"
_CLEAN_MOVE = " + R{k}_{j} * (L{k}_{j} + v{c} - v{k})"
_COLLATERAL = """\
m = A * v{k} + {im}
g = v{k} - m
tI = nLI * g if g > 0.0 else 0.0
tC = nLC * g if g < 0.0 else 0.0
fm = {fm}"""
_IM = "im0[{k}] * w0 + im1[{k}] * w"
_VARIANT = """\
zI = tI - {u}
zC = tC - {u}{pick}
z = 0.0{children} - n{k} * {u}
yf = {u} + z + zI + zC + sL{k} - m
o{b}_{k} = hI{k} * zI + {h_C} * zC + (0.0{jumps}) + (
    -({fy}) + rD * (z + zI + zC) - fm + rL{k})"""
_CHILD = " + c{k}_{j} * {uc}"
_JUMP = " + R{k}_{j} * ({uc} - {u})"
# per variant, the line that picks the counterparty intensity and its name in
# the drift: the true one, or the band extreme on the sign of zC, picked once
# for the drift and the pocket's surplus rate
_H_C = {"actual": ("", "hC{k}"),
        "upper": ("\nhc = hH if zC >= 0.0 else hL", "hc"),
        "lower": ("\nhc = hL if zC >= 0.0 else hH", "hc")}
_SURPLUS = "p{p}_{k} = (hc - hC{k}) * zC"
# the funding and margin rates of a sign, or the one product of an equal pair
_FY = ("rfp * yf if yf > 0.0 else rfm * yf", "rfp * yf")
_FM = ("rmp * m if m > 0.0 else rmm * m", "rmp * m")


def _kernel_source(shape, layout, n_blocks: int, no_im, one_rate) -> str:
    """Source of ``step(coeffs, im0, im1, stages, h6, y, base)`` for one
    lattice shape.

    ``shape`` lists the children of every state and ``coeffs`` is a bundle
    flattened by ``_binder``.  ``step`` is the right-hand side unrolled over
    states, moves and blocks with the lattice values in local variables, run
    once per entry ``(w, a, c)`` of ``stages`` at the position ``w`` in the
    segment.  Each stage adds ``a`` times its slope to a running sum and,
    unless ``c`` is None, makes the next stage's input ``base + c * slope``;
    the step returns ``base + h6 * sum``.  With the classical stages and
    ``base = y`` that is one RK4 step, with the float operations of
    ``y + (0.5 * h) * k`` for the stage inputs and ``y + (h / 6.0) *
    (((k1 + 2.0 * k2) + 2.0 * k3) + k4)`` for the result, and the body those
    of a loop over the states in the same order, so every value rounds as it
    would there.

    What the caller knows folds into the source, each bit for bit:
    ``no_im`` states, whose initial margin is +0.0, get ``A * v + 0.0`` for
    the collateral (the sum of the +0.0 margin terms is +0.0 whatever the
    signs of ``w0`` and ``w``), and the absorbed state (no move) among them,
    whose every column is and stays +0.0 (``base`` + h6 * ±0.0 is
    ``base``), gets no body and returns its base; ``one_rate`` flags the
    funding and the margin rate pairs whose two rates are one float, which
    one product serves.
    """
    size = len(shape)
    fixed = {k for k, children in enumerate(shape) if not children} & no_im
    names, body = [_RATES], []
    y = [[f"v{k}" for k in range(size)]] + [["_"] * size for _ in range(n_blocks - 1)]
    out = [[None] * size for _ in range(n_blocks)]
    fy, fm = _FY[one_rate[0]], _FM[one_rate[1]]
    for k, children in enumerate(shape):
        moves = list(enumerate(children))
        names.append(_STATE_COEFFS.format(k=k))
        names += (_MOVE_COEFFS.format(k=k, j=j) for j, _ in moves)
        for which, b, p in layout:
            y[b][k] = f"u{b}_{k}"
        if k in fixed:
            continue
        body.append(_CLEAN.format(k=k, moves="".join(
            _CLEAN_MOVE.format(k=k, j=j, c=c) for j, c in moves)))
        out[0][k] = f"d{k}"
        if layout:
            im = "0.0" if k in no_im else _IM.format(k=k)
            body.append(_COLLATERAL.format(k=k, im=im, fm=fm))
        for which, b, p in layout:
            u = y[b][k]
            pick, h_C = _H_C[which]
            body.append(_VARIANT.format(
                k=k, b=b, u=u, pick=pick, h_C=h_C.format(k=k), fy=fy,
                children="".join(_CHILD.format(k=k, j=j, uc=f"u{b}_{c}") for j, c in moves),
                jumps="".join(_JUMP.format(k=k, j=j, uc=f"u{b}_{c}", u=u) for j, c in moves),
            ))
            out[b][k] = f"o{b}_{k}"
            if p is not None:
                body.append(_SURPLUS.format(p=p, k=k))
                out[p][k] = f"p{p}_{k}"
    ins, outs = sum(y, []), sum(out, [])
    # Y{i} is column i of the base and acc{i} the weighted sum of its stage
    # slopes; the sum starts at -0.0, so adding 1.0 * k1 gives k1 bit for
    # bit.  The pocket columns feed no stage; a fixed state's columns have
    # no slope.
    live = [i for i, o in enumerate(outs) if o is not None]
    stage = ["w0 = 1.0 - w"] * bool(layout and len(no_im) < size) + body
    stage += [f"acc{i} = acc{i} + a * {outs[i]}" for i in live]
    stage += ["if c is None:", "    break"]
    stage += [f"{ins[i]} = Y{i} + c * {outs[i]}" for i in live if ins[i] != "_"]
    lines = [f"{', '.join(names)}, = coeffs", f"{', '.join(ins)}, = y",
             f"{', '.join(f'Y{i}' for i in range(len(outs)))}, = base"]
    lines += [f"{' = '.join(f'acc{i}' for i in live)} = -0.0"] * bool(live)
    lines += ["for w, a, c in stages:"]
    lines += (f"    {line}" for text in stage for line in text.split("\n"))
    ends = (f"Y{i} + h6 * acc{i}" if o else f"Y{i}" for i, o in enumerate(outs))
    lines += [f"return [{', '.join(ends)}]"]
    return ("def step(coeffs, im0, im1, stages, h6, y, base):\n"
            + "".join(f"    {line}\n" for text in lines for line in text.split("\n")))


def source_length(cfg: MarketConfig, space: StateSpace, variants) -> int:
    """A bound, from counts alone, on the length of the step the pass
    writes for ``space`` and ``variants`` (see ``_kernel_source``).

    It is the source of a one-state lattice with no move, plus the text
    written for every other state and every move with each index as wide
    as the widest of its kind and nothing folded.  Class g has survivors in
    size * |g| / (|g| + 1) states, so that many moves leave it.
    """
    layout, n_blocks = _layout(cfg, variants)
    size = space.size
    k, j, b, i = ("9" * len(str(max(count - 1, 0)))
                  for count in (size, len(space.classes), n_blocks, size * n_blocks))
    u = f"u{b}_{k}"

    def text(template, **fields):
        return template.format(k=k, j=j, c=k, b=b, p=b, u=u, uc=u, **fields)

    def lines(body):  # a stage line: eight spaces of indent and a newline
        return sum(9 + len(line) for line in body.split("\n"))

    # each entry of the coeffs, y and base unpackings and of the return list
    # carries its ", "; every column has those, its accumulator and its input
    per_state = len(text(_STATE_COEFFS)) + 2 + lines(text(_CLEAN, moves="")) + n_blocks * (
        len(f"{u}, Y{i}, acc{i} = Y{i} + h6 * acc{i}, ")
        + lines(f"acc{i} = acc{i} + a * {u}") + lines(f"{u} = Y{i} + c * {u}"))
    per_move = len(text(_MOVE_COEFFS)) + 2 + len(text(_CLEAN_MOVE))
    if layout:
        per_state += lines(text(_COLLATERAL, im=text(_IM), fm=_FM[0]))
    pick, h_C = _H_C["upper"]  # a band pick is longer than the true rate
    for _which, _block, pocket in layout:
        per_state += lines(text(_VARIANT, pick=pick, h_C=h_C, fy=_FY[0], children="", jumps=""))
        per_move += len(text(_CHILD)) + len(text(_JUMP))
        if pocket is not None:
            per_state += lines(text(_SURPLUS))
    moves = sum(size * len(g) // (len(g) + 1) for g in space.classes)
    one = len(_kernel_source(((),), layout, n_blocks, frozenset(), (False, False)))
    return one + (size - 1) * per_state + moves * per_move


# ---------------------------------------------------------------------------
# Lattice solves
# ---------------------------------------------------------------------------

XvaResult = namedtuple("XvaResult", "surface regime pocket", defaults=(None, None))
XvaResult.__doc__ = """One variant's (states x nodes) surface, and for upper and lower the
regime selected at every node and, when mu_C_true is set, the pocket surface."""


def _joint_pass(cfg, model, portfolio, grid, space, margins, variants):
    """One RK4 sweep of the clean value plus every requested variant.

    The sweep runs in reversed time s = T - t, from the last grid segment
    to the first, with one generated step per segment (see
    ``_kernel_source``).  Returns the pass's array, a row per column of
    the step (so each state's surface is a contiguous row) and an entry per
    grid node, and the pass's ``bind`` (see ``_binder``), whose step is
    exact at every grid node.  A pass that leaves a non-finite value
    anywhere is refused with ConfigError.
    """
    size = space.size
    zero_im = frozenset(np.flatnonzero(
        ((margins.im == 0.0) & ~np.signbit(margins.im)).all(axis=1)).tolist())
    # the step reads the margin rows of the states outside zero_im only
    im = margins.im.T.tolist() if len(zero_im) < size else [[0.0] * size] * len(grid)
    bind = _binder(cfg, portfolio, size, margins.alpha, variants, zero_im)
    # each segment's coefficients at its start node: every model break is a
    # node (see engine.grid_breakpoints) and the pieces are right-continuous
    index, bundles = lattice_coefficients(cfg, model, portfolio, space, grid[:-1])
    steps = [bind(states) for states in bundles]
    nodes = grid.tolist()  # times as floats, so the step does no numpy scalar arithmetic
    T = nodes[-1]
    layout, n_blocks = _layout(cfg, variants)
    y = [0.0] * (n_blocks * size)  # every column starts at +0.0 (see _binder's zero_im)
    path = np.empty((len(y), len(nodes)))
    path[:, -1] = y
    for seg in range(len(nodes) - 2, -1, -1):
        t0, t1 = nodes[seg], nodes[seg + 1]
        s0, h = T - t1, t1 - t0
        hh = 0.5 * h
        w1 = (T - s0 - t0) / h  # the stage's position in the segment
        w2 = (T - (s0 + hh) - t0) / h
        w3 = (T - (s0 + h) - t0) / h
        stages = ((w1, 1.0, hh), (w2, 2.0, hh), (w2, 2.0, h), (w3, 1.0, None))
        y = steps[index[seg]](im[seg], im[seg + 1], stages, h / 6.0, y, y)
        path[:, seg] = y
    bad = ~np.isfinite(path)
    if bad.any():
        node = int(np.flatnonzero(bad.any(axis=0))[-1])  # the pass runs backwards
        row = int(np.flatnonzero(bad[:, node])[0])
        surfaces = ["clean"] * n_blocks
        for which, block, pocket in layout:
            surfaces[block] = which
            if pocket is not None:
                surfaces[pocket] = f"{which} pocket"
        raise ConfigError(f"the lattice pass is not finite: {path[row, node]} in state "
                          f"{row % size} at t = {nodes[node]} of the "
                          f"{surfaces[row // size]} surface")
    return path, bind


def solve_clean(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
) -> np.ndarray:
    """Clean value surface of every default state: the pass with no XVA column or margin."""
    margins = MarginSchedule(0.0, np.zeros((space.size, len(grid))))
    return _joint_pass(cfg, model, portfolio, grid, space, margins, ())[0]


def solve_xva(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    grid: np.ndarray,
    space: StateSpace,
    margins: MarginSchedule,
    variants: tuple[str, ...],
) -> tuple[np.ndarray, dict[str, XvaResult], Callable, np.ndarray]:
    """Solves every requested variant jointly with the clean value, in one pass.

    Returns the clean surface of the pass, one result per variant, the
    pass's ``bind`` and the pass's array, and settles ``margins`` (vm and
    m) on that clean surface.  The upper and lower results carry the
    regime selected at every node and, when mu_C_true is set, the pocket
    surface.  Every surface is a row block of the pass's array.
    """
    path, bind = _joint_pass(cfg, model, portfolio, grid, space, margins, variants)

    def rows(block):
        return path[block * space.size:(block + 1) * space.size]

    clean = rows(0)
    margins.settle(clean)
    _, theta_C = closeout_excess(
        clean, margins.m, portfolio.loss_investor, portfolio.loss_counterparty,
    )
    results = {}
    for which, block, pocket in _layout(cfg, variants)[0]:
        u, regime = rows(block), None
        if which != "actual":
            z_C = theta_C - u
            hi = (z_C > 0.0) == (which == "upper")
            regime = np.where(z_C == 0.0, REGIME_TIE, np.where(hi, REGIME_HI, REGIME_LO))
        results[which] = XvaResult(u, regime, None if pocket is None else rows(pocket))
    return clean, results, bind, path
