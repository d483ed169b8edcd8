"""Third-party (clean) valuation of the CDS portfolio over the default lattice.

The clean value surface solves, in reversed time s = T - t and for every
default state J,

    dv/ds = -r_D v - sum_{i alive} S_i + sum_{i alive} h_i (L_i + v_child - v)

with v = 0 at s = 0 and v identically zero once all entities have defaulted.
Spreads and losses carry the contract direction sign.  The coefficients are
built here and integrated by the lattice pass of ``xva``.  A closed-form
evaluation of the single-name integral representation serves as the exact
cross-check for the ODE path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import StateSpace
from .market import ContagionModel, PiecewiseTable, Portfolio


# ---------------------------------------------------------------------------
# Per-segment lattice coefficients
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


class LatticeCoefficients:
    """Builds and caches per-time-piece coefficient bundles for the lattice.

    Coefficients are piecewise constant in time; a bundle is the tuple of
    StateCoeffs of every lattice state in key order, cached by the index of
    the piece containing the queried time.  ``h_C_true`` is the true
    counterparty intensity table (see ``xva.resolve_true_h_c``); its breaks
    are among the model's.
    """

    def __init__(self, model: ContagionModel, portfolio: Portfolio, space: StateSpace,
                 h_C_true: PiecewiseTable | None):
        self.model = model
        self.h_C_true = h_C_true
        self.portfolio = portfolio
        self.space = space
        self.breaks = np.asarray(model.breakpoints())
        self._cache: dict[int, tuple[StateCoeffs, ...]] = {}

    def at(self, t: float) -> tuple[StateCoeffs, ...]:
        piece = int(np.searchsorted(self.breaks, t, side="right"))
        cached = self._cache.get(piece)
        if cached is not None:
            return cached
        coeffs = self._build(t)
        self._cache[piece] = coeffs
        return coeffs

    def per_segment(self, mids: np.ndarray) -> list:
        """Coefficient bundle for every grid segment, indexed by segment.

        Segments within one constant-coefficient piece share a single bundle
        object, so the lookup inside the integrator is a list access.
        """
        return [self.at(float(t)) for t in mids]

    def _build(self, t: float) -> tuple[StateCoeffs, ...]:
        model, pf, space = self.model, self.portfolio, self.space
        states = []
        for key in space.keys:
            count = space.count(key)
            sum_S = sum_L = 0.0
            transitions = []
            for child, entities in space.moves(key):
                w = len(entities)  # the entities of one move share contract and rate
                con = pf.contracts[entities[0] - 1]
                sum_S += w * con.direction * con.spread
                sum_L += w * con.direction * con.loss
                h = model.intensity_by_count(entities[0], t, count)
                transitions.append((child, w * h, con.direction * con.loss, w))
            states.append(StateCoeffs(
                sum_S=sum_S, sum_L=sum_L,
                h_I=model.intensity_by_count("I", t, count),
                h_C=math.nan if self.h_C_true is None else self.h_C_true.at(t, count),
                alive_count=pf.n - count, transitions=tuple(transitions),
            ))
        return tuple(states)


# ---------------------------------------------------------------------------
# Single-name closed form
# ---------------------------------------------------------------------------

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
