"""Third-party (clean) valuation of the CDS portfolio over the default lattice.

The clean value surface solves, in reversed time s = T - t and for every
default state J,

    dv/ds = -r_D v - sum_{i alive} S_i + sum_{i alive} h_i (L_i + v_child - v)

with v = 0 at s = 0 and v identically zero once all entities have defaulted.
Spreads and losses carry the contract direction sign.  The coefficients are
built here and integrated by the lattice pass of ``xva``.  The tests check
the ODE path against the closed-form single-name value in
``tests/references.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import StateSpace
from .market import ContagionModel, PiecewiseTable, Portfolio


# ---------------------------------------------------------------------------
# Per-piece lattice coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateCoeffs:
    """Coefficients of one default state on one constant-coefficient piece.

    ``transitions`` lists the one-default moves out of the state as tuples
    ``(child, rate, loss, count)``: the target state, the aggregate intensity
    of the move, the signed loss paid on it, and the number of contracts it
    retires (see ``StateSpace.moves``).  ``h_C`` is the true counterparty
    intensity, NaN when the config does not give one.
    """

    sum_S: float
    sum_L: float
    h_I: float
    h_C: float
    alive_count: int
    transitions: tuple


def lattice_coefficients(
    model: ContagionModel,
    portfolio: Portfolio,
    space: StateSpace,
    h_C_true: PiecewiseTable | None,
    times: np.ndarray,
) -> tuple[list[int], list[tuple[StateCoeffs, ...]]]:
    """Coefficient bundles of the lattice over the float array ``times``.

    A bundle is the tuple of StateCoeffs of every lattice state in key
    order.  Coefficients are piecewise constant in time, so there is one
    bundle per piece of the model's breaks that ``times`` meets, built at
    the first of its times.  Returns ``(index, bundles)``: the bundle of
    ``times[i]`` is ``bundles[index[i]]``.  ``h_C_true`` is the true
    counterparty intensity table (see ``xva.resolve_true_h_c``); its breaks
    are among the model's.
    """
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
        h = model.intensity_by_count(entities[0], t, count)
        transitions.append((child, w * h, con.direction * con.loss, w))
    return StateCoeffs(
        sum_S=sum_S, sum_L=sum_L,
        h_I=model.intensity_by_count("I", t, count),
        h_C=math.nan if h_C_true is None else h_C_true.at(t, count),
        alive_count=portfolio.n - count, transitions=tuple(transitions),
    )
