"""Time grids, default-state enumeration, and gridded value surfaces.

The solvers integrate in reversed time s = T - t, but every surface is stored
on the calendar-time grid with index 0 at t = 0 and the last index at t = T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import ConfigError, ContagionModel, Portfolio, is_homogeneous


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
    """Enumeration of default states.

    Full mode enumerates all 2^N subsets as bitmasks; homogeneous mode keeps
    only the default count k = 0..N.  ``keys`` are the state labels in solver
    order (index == label in both modes).
    """

    n: int
    homogeneous: bool

    @property
    def size(self) -> int:
        return self.n + 1 if self.homogeneous else 1 << self.n

    @property
    def keys(self) -> range:
        return range(self.size)

    def count(self, key: int) -> int:
        """Number of defaults |J| in the state."""
        return key if self.homogeneous else bin(key).count("1")

    def alive(self, key: int) -> list[int]:
        """Surviving 1-based entity ids; in homogeneous mode the names are
        exchangeable and the survivors are the slots 1..n - key."""
        if self.homogeneous:
            return list(range(1, self.n - key + 1))
        return [i for i in range(1, self.n + 1) if not key >> (i - 1) & 1]

    def child(self, key, entity):
        """State after the default of ``entity``: key + 1 in homogeneous mode.

        ``key`` and ``entity`` may be int arrays of one shape (entities >= 1).
        """
        if self.homogeneous:
            return key + 1
        return key | 1 << (entity - 1)

    def moves(self, key: int) -> list[tuple[int, list[int]]]:
        """One-default moves out of ``key`` as ``(child, entities)`` pairs.

        Full mode has one move per survivor; homogeneous mode one move to
        key + 1, carried by every survivor slot.
        """
        alive = self.alive(key)
        if self.homogeneous:
            return [(key + 1, alive)] if alive else []
        return [(self.child(key, i), [i]) for i in alive]

    def root(self) -> int:
        return 0


def choose_state_space(model: ContagionModel, portfolio: Portfolio, force_full: bool = False) -> StateSpace:
    homo = is_homogeneous(model, portfolio) and not force_full
    return StateSpace(n=portfolio.n, homogeneous=homo)


@dataclass
class LatticeSurface:
    """One scalar function of time per default state.

    ``values`` is a (states x nodes) array: row ``values[key]`` holds state
    ``key`` over ``grid``.  ``tag`` names the stored quantity (``v_hat``,
    ``u_actual``, ``u_upper``, ``u_lower``, ``vm``, ``im``, ``m``,
    ``pocket``).
    """

    grid: np.ndarray
    space: StateSpace
    tag: str
    values: np.ndarray

    def at(self, key: int, t: float) -> float:
        """Linear interpolation in time within one state."""
        return float(np.interp(t, self.grid, self.values[key]))

    def at0(self, key: int = 0) -> float:
        return float(self.values[key][0])

    def terminal(self, key: int = 0) -> float:
        return float(self.values[key][-1])


def zero_surface(grid: np.ndarray, space: StateSpace, tag: str) -> LatticeSurface:
    return LatticeSurface(grid=grid, space=space, tag=tag,
                          values=np.zeros((space.size, len(grid))))


def rk4_sweep(grid: np.ndarray, y0: np.ndarray, rhs, record) -> None:
    """Classical fixed-step RK4 in reversed time s = T - t.

    ``rhs(seg, s, y)`` returns dy/ds, where ``seg`` is the index of the
    calendar segment being crossed (segments are traversed from the last to
    the first).  ``record(node_index, y)`` is called at every calendar node,
    starting with the terminal node.
    """
    nodes = grid.tolist()  # times as floats, so rhs does no numpy scalar arithmetic
    T = nodes[-1]
    n_nodes = len(nodes)
    y = y0.astype(float).copy()
    record(n_nodes - 1, y)
    for j in range(n_nodes - 1, 0, -1):
        seg = j - 1
        s0 = T - nodes[j]
        h = nodes[j] - nodes[j - 1]
        k1 = rhs(seg, s0, y)
        k2 = rhs(seg, s0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(seg, s0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(seg, s0 + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(j - 1, y)
