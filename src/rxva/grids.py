"""Time grids, default-state enumeration, and gridded value surfaces.

The solvers integrate in reversed time s = T - t, but every surface is stored
on the calendar-time grid with index 0 at t = 0 and the last index at t = T.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .market import ConfigError, ContagionModel, Portfolio


def build_grid(
    T: float,
    breakpoints=(),
    min_points: int = 2000,
    space: StateSpace | None = None,
    max_cells: int | None = None,
) -> np.ndarray:
    """Strictly increasing calendar grid on [0, T].

    Every interior breakpoint is an exact grid node and the spacing is uniform
    between consecutive breakpoints, so piecewise-constant coefficients are
    constant on every integration segment.  The grid carries at least
    ``min_points`` segments in total.  Given ``space`` and ``max_cells``, a
    lattice of more than ``max_cells`` state-node cells is refused with
    ConfigError before any node is built.
    """
    if T <= 0.0:
        raise ValueError(f"maturity must be positive, got {T}")
    anchors = [0.0] + sorted({float(b) for b in breakpoints if 0.0 < b < T}) + [T]
    steps = [max(1, int(np.ceil((b - a) / T * min_points))) for a, b in zip(anchors, anchors[1:])]
    n_nodes = 1 + sum(steps)
    if space is not None and space.size * n_nodes > max_cells:
        raise ConfigError(
            f"the lattice for N = {space.n} names has {space.size} states; over "
            f"{n_nodes} grid nodes that exceeds the bound of {max_cells} "
            f"state-node cells"
        )
    nodes = [0.0]
    for a, b, k in zip(anchors, anchors[1:], steps):
        nodes.extend(np.linspace(a, b, k + 1)[1:])
    grid = np.asarray(nodes)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid construction produced non-increasing nodes")
    return grid


@dataclass(frozen=True)
class StateSpace:
    """Default states of a portfolio whose names fall into exchangeable classes.

    ``classes`` holds tuples of 1-based entity ids.  A key is a mixed-radix
    number: digit g is the default count d_g of class g, its radix is
    |g| + 1, and the survivors of class g are its first |g| - d_g members.
    Singleton classes in entity order give the bitmask of the defaulted
    names, and one class gives the default count.  ``keys`` are the state
    labels in solver order.
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(map(len, self.classes))

    @property
    def homogeneous(self) -> bool:
        """One class: the key is the default count."""
        return len(self.classes) == 1

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Place value of each class's digit, then the number of states."""
        return tuple(accumulate((len(c) + 1 for c in self.classes), operator.mul, initial=1))

    @property
    def size(self) -> int:
        return self.strides[-1]

    @property
    def keys(self) -> range:
        return range(self.size)

    def digits(self, key: int) -> list[int]:
        """Default count of each class in the state."""
        return [key // stride % (len(c) + 1) for c, stride in zip(self.classes, self.strides)]

    def count(self, key: int) -> int:
        """Number of defaults |J| in the state."""
        return sum(self.digits(key))

    def alive(self, key: int) -> list[int]:
        """Surviving 1-based entity ids, class by class."""
        return [i for _, entities in self.moves(key) for i in entities]

    @cached_property
    def _entity_stride(self) -> np.ndarray:
        by_entity = {i: stride for c, stride in zip(self.classes, self.strides) for i in c}
        return np.array([0] + [by_entity[i] for i in range(1, self.n + 1)], dtype=np.int64)

    def child(self, key, entity):
        """State after the default of the surviving ``entity``.  ``key`` and
        ``entity`` may be int arrays of one shape (entities >= 1)."""
        return key + self._entity_stride[entity]

    def moves(self, key: int) -> list[tuple[int, list[int]]]:
        """One-default moves out of ``key`` as ``(child, entities)`` pairs:
        one per class with survivors, carried by those survivors."""
        return [(key + stride, list(c[:len(c) - d]))
                for c, stride, d in zip(self.classes, self.strides, self.digits(key)) if d < len(c)]

    def root(self) -> int:
        return 0


def choose_state_space(model: ContagionModel, portfolio: Portfolio, force_full: bool = False) -> StateSpace:
    """Names with an equal contract and reference table are exchangeable (see
    ContagionModel); one class each, ordered by smallest member, or one class
    per name with ``force_full``."""
    classes: dict = {}
    for i in range(1, portfolio.n + 1):
        tag = i if force_full else (portfolio.contracts[i - 1], model.table(i))
        classes.setdefault(tag, []).append(i)
    return StateSpace(tuple(map(tuple, classes.values())))


@dataclass
class LatticeSurface:
    """One scalar function of time per default state.

    ``values`` is a (states x nodes) array: row ``values[key]`` holds state
    ``key`` over ``grid``.
    """

    grid: np.ndarray
    space: StateSpace
    values: np.ndarray

    def at(self, key: int, t: float) -> float:
        """Linear interpolation in time within one state."""
        return float(np.interp(t, self.grid, self.values[key]))

    def at0(self, key: int = 0) -> float:
        return float(self.values[key][0])

    def terminal(self, key: int = 0) -> float:
        return float(self.values[key][-1])


def zero_surface(grid: np.ndarray, space: StateSpace) -> LatticeSurface:
    return LatticeSurface(grid=grid, space=space, values=np.zeros((space.size, len(grid))))


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
