"""Grid construction, state spaces, surface arrays, and the RK4 integrator."""

import numpy as np
import pytest

from rxva.grids import StateSpace, build_grid, choose_state_space
from rxva.market import ConfigError, Contract, Portfolio, contagion_from_dict
from rxva.oracle import _at
from rxva.reporting import write_clean_csv

from references import rk4_sweep


class TestBuildGrid:
    def test_basic_properties(self):
        grid = build_grid(3.0, breakpoints=(2.0,), min_points=2000)
        assert grid[0] == 0.0 and grid[-1] == 3.0
        assert len(grid) - 1 >= 2000
        assert np.all(np.diff(grid) > 0.0)

    def test_breakpoints_are_nodes(self):
        grid = build_grid(3.0, breakpoints=(0.7, 2.0), min_points=500)
        for b in (0.7, 2.0):
            assert np.min(np.abs(grid - b)) == 0.0

    def test_uniform_between_breakpoints(self):
        grid = build_grid(2.0, breakpoints=(1.0,), min_points=100)
        left = np.diff(grid[grid <= 1.0])
        assert np.allclose(left, left[0], rtol=0.0, atol=1e-12)

    def test_breakpoints_outside_range_ignored(self):
        grid = build_grid(1.0, breakpoints=(-1.0, 0.0, 1.0, 5.0), min_points=10)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_lattice_bound_checked_before_nodes_are_built(self, monkeypatch):
        space = StateSpace(((1,), (2,), (3,), (4,), (5,)))
        grid = build_grid(1.0, breakpoints=(0.5,), min_points=60, space=space, max_cells=32 * 61)
        assert len(grid) == 61
        monkeypatch.setattr(np, "linspace", None)  # any node built would raise TypeError
        with pytest.raises(ConfigError, match="N = 5 names has 32 states; over 63 grid nodes"):
            build_grid(1.0, breakpoints=(0.5,), min_points=62, space=space, max_cells=32 * 61)

    def test_nonpositive_maturity(self):
        with pytest.raises(ValueError):
            build_grid(0.0)


class TestStateSpace:
    def test_full_mode(self):
        space = StateSpace(((1,), (2,), (3,)))
        assert space.size == 8
        assert space.count(0b101) == 2
        assert [i for _, e in space.moves(0b101) for i in e] == [2]
        assert space.child(0b001, 3) == 0b101
        assert space.root() == 0

    def test_homogeneous_mode(self):
        space = StateSpace(((1, 2, 3, 4, 5),))
        assert space.size == 6
        assert space.count(3) == 3
        assert space.child(2, 3) == 3
        assert [i for _, e in space.moves(2) for i in e] == [1, 2, 3]
        assert [i for _, e in space.moves(5) for i in e] == []

    def test_moves(self):
        full = StateSpace(((1,), (2,), (3,)))
        assert full.moves(0b000) == [(0b001, [1]), (0b010, [2]), (0b100, [3])]
        assert full.moves(0b101) == [(0b111, [2])]
        assert full.moves(0b111) == []
        homo = StateSpace(((1, 2, 3),))
        assert homo.moves(0) == [(1, [1, 2, 3])]
        assert homo.moves(2) == [(3, [1])]
        assert homo.moves(3) == []

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_moves_cover_the_survivors(self, homogeneous):
        space = StateSpace(((1, 2, 3, 4),) if homogeneous else ((1,), (2,), (3,), (4,)))
        for key in space.keys:
            moves = space.moves(key)
            survivors = [i for _, entities in moves for i in entities]
            assert len(set(survivors)) == len(survivors) == space.n - space.count(key)
            assert all(child == space.child(key, entities[0]) for child, entities in moves)
            assert all(space.count(child) == space.count(key) + 1 for child, _ in moves)

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_child_on_arrays(self, homogeneous):
        space = StateSpace(((1, 2, 3, 4),) if homogeneous else ((1,), (2,), (3,), (4,)))
        pairs = [(key, i) for key in space.keys for _, e in space.moves(key) for i in e]
        keys = np.array([key for key, _ in pairs], dtype=np.int64)
        entities = np.array([i for _, i in pairs], dtype=np.int64)
        got = space.child(keys, entities)
        assert got.dtype == np.int64
        assert got.tolist() == [space.child(key, i) for key, i in pairs]

    def test_two_classes_in_mixed_radix(self):
        # classes {1, 3} and {2}: digit 0 counts the defaults in {1, 3}
        # (radix 3), digit 1 those in {2} (radix 2)
        space = StateSpace(((1, 3), (2,)))
        assert (space.n, space.size, space.strides) == (3, 6, (1, 3, 6))
        assert not space.homogeneous
        assert [space.digits(key) for key in space.keys] == \
            [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        assert space.count(4) == 2 and [i for _, e in space.moves(4) for i in e] == [1]
        assert space.moves(0) == [(1, [1, 3]), (3, [2])]
        assert space.moves(1) == [(2, [1]), (4, [2])]
        assert space.moves(5) == []
        assert space.child(np.array([0, 1, 0]), np.array([3, 1, 2])).tolist() == [1, 2, 3]
        for key in space.keys:
            assert all(space.count(child) == space.count(key) + 1
                       for child, _ in space.moves(key))

    def test_choose_state_space_groups_exchangeable_names(self):
        a, b = Contract(spread=0.02, loss=0.5), Contract(spread=0.03, loss=0.5)
        pf = Portfolio(contracts=(b, a, b, a, a), maturity=1.0,
                       loss_investor=0.5, loss_counterparty=0.5)
        model = contagion_from_dict({"a30": 0.1}, 5)
        assert choose_state_space(model, pf).classes == ((1, 3), (2, 4, 5))
        assert choose_state_space(model, pf, force_full=True).classes == \
            ((1,), (2,), (3,), (4,), (5,))

    def test_choose_state_space(self):
        con = Contract(spread=0.02, loss=0.5)
        pf = Portfolio(contracts=(con, con), maturity=1.0,
                       loss_investor=0.5, loss_counterparty=0.5)
        model = contagion_from_dict({"a30": 0.1}, 2)
        assert choose_state_space(model, pf).homogeneous
        assert not choose_state_space(model, pf, force_full=True).homogeneous
        hetero = Portfolio(
            contracts=(con, Contract(spread=0.03, loss=0.5)),
            maturity=1.0, loss_investor=0.5, loss_counterparty=0.5,
        )
        assert not choose_state_space(model, hetero).homogeneous


class TestSurfaceArrays:
    """A surface is a plain (states x nodes) array on the engine's grid."""

    def test_interpolation(self):
        grid = np.array([0.0, 1.0, 2.0])
        surf = np.array([[0.0, 2.0, 4.0], [0.0, 0.0, 0.0]])
        # the oracle's read between nodes, the one interpolation of a surface
        assert _at(grid, (surf,), np.array([0, 0]), np.array([0.5, 2.0]))[0].tolist() == [1.0, 4.0]

    def test_rows_order(self, tmp_path):
        # CSV export walks the states in key order, each over the whole grid
        grid = np.array([0.0, 1.0])
        write_clean_csv(tmp_path / "clean.csv", grid, np.zeros((2, len(grid))))
        rows = (tmp_path / "clean.csv").read_text().splitlines()[1:]
        assert [(float(r.split(",")[0]), int(r.split(",")[1])) for r in rows] == \
            [(0.0, 0), (1.0, 0), (0.0, 1), (1.0, 1)]

    @pytest.mark.parametrize("fixture", ["single_name_result", "five_name_result"])
    def test_engine_surfaces_are_row_blocks_of_the_pass(self, request, fixture):
        res = request.getfixturevalue(fixture)
        assert set(res.xva) == {"actual", "upper", "lower"}
        shape = (res.space.size, len(res.grid))
        arrays = [res.clean, res.margins.vm, res.margins.im, res.margins.m]
        blocks = [res.clean]  # the rows the pass integrated
        for which, xres in res.xva.items():
            assert (xres.regime is None) == (which == "actual")
            pocket = [] if xres.pocket is None else [xres.pocket]
            arrays += [xres.surface, *pocket] + [xres.regime] * (xres.regime is not None)
            blocks += [xres.surface, *pocket]
        assert all(type(a) is np.ndarray and a.shape == shape for a in arrays)
        # one base array, cut into consecutive (states x nodes) row blocks
        base = res.clean.base
        assert base is not None and base.shape == (len(blocks) * shape[0], shape[1])
        assert res.solution is base  # the result keeps the pass's array
        assert all(b.base is base for b in blocks)
        starts = sorted((b.ctypes.data - base.ctypes.data) // b.nbytes for b in blocks)
        assert starts == list(range(len(blocks)))


class TestRk4Sweep:
    def test_exponential_decay_order(self):
        # dv/ds = -lambda v, v(s=0)=1, over s in [0, T]; calendar node 0
        # corresponds to s = T.
        lam = 1.3
        errors = []
        for n in (50, 100):
            grid = np.linspace(0.0, 2.0, n + 1)

            def rhs(seg, s, y):
                return -lam * y

            path = rk4_sweep(grid, np.array([1.0]), rhs)
            errors.append(abs(path[0, 0] - np.exp(-lam * 2.0)))
        assert errors[0] / errors[1] > 12.0  # fourth order: factor ~16

    def test_terminal_node_records_initial_data(self):
        grid = np.linspace(0.0, 1.0, 11)
        path = rk4_sweep(grid, np.array([3.0]), lambda seg, s, y: np.zeros_like(y))
        assert path[0, 10] == 3.0
        assert path[0, 0] == 3.0
        assert path.shape == (1, 11)

    def test_segment_indices_cover_grid_backwards(self):
        grid = np.linspace(0.0, 1.0, 5)
        segs = []
        rk4_sweep(grid, np.zeros(1),
                  lambda seg, s, y: (segs.append(seg), np.zeros(1))[1])
        assert segs[::4] == [3, 2, 1, 0]
