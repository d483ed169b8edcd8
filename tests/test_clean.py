"""Clean valuation: ODE solve versus the exact single-name closed form."""

from dataclasses import replace

import numpy as np
import pytest

from rxva.clean import clean_closed_form_single
from rxva.grids import StateSpace, build_grid
from rxva.market import (
    Contract,
    MarketConfig,
    PiecewiseTable,
    Portfolio,
    contagion_from_dict,
)
from rxva.xva import solve_clean


def _cfg(r_D: float) -> MarketConfig:
    return MarketConfig(
        r_D=r_D, r_f_plus=r_D, r_f_minus=r_D,
        r_m_plus=r_D, r_m_minus=r_D,
        mu_C_lower=1.0, mu_C_upper=1.0,
    )


def _solve_single(r_D, S, L, breaks, h_values, T, direction=1, grid_points=800):
    table = PiecewiseTable(
        breaks=tuple(breaks), values=tuple((float(v),) for v in h_values)
    )
    model = replace(contagion_from_dict({"a10": 0.1, "a20": 0.1}, 1), references=(table,))
    portfolio = Portfolio(
        contracts=(Contract(spread=S, loss=L, direction=direction),),
        maturity=T, loss_investor=0.5, loss_counterparty=0.5,
    )
    grid = build_grid(T, table.breaks, min_points=grid_points)
    space = StateSpace(((1,),))
    surface = solve_clean(_cfg(r_D), model, portfolio, grid, space)
    return surface, table


class TestSingleNameValues:
    def test_pure_protection_leg(self):
        # S = 0, L = 0.5, h = 0.1, r_D = 0, T = 1: v(0) = L (1 - e^{-h T})
        surface, _ = _solve_single(0.0, 0.0, 0.5, (), (0.1,), 1.0)
        assert surface.at0(0) == pytest.approx(0.0475813, abs=1e-7)
        cf = clean_closed_form_single(0.0, ((), (0.1,)), 0.0, 0.5, 1.0, 0.0)
        assert cf == pytest.approx(0.5 * (1.0 - np.exp(-0.1)), abs=1e-15)

    def test_pure_premium_leg(self):
        # L = 0, S = 0.02, h = 0.1, r_D = 0, T = 1: v(0) = -S (1 - e^{-h T}) / h
        surface, _ = _solve_single(0.0, 0.02, 0.0, (), (0.1,), 1.0)
        assert surface.at0(0) == pytest.approx(-0.0190325, abs=1e-7)

    def test_terminal_value_zero(self):
        surface, _ = _solve_single(0.02, 0.02, 0.5, (1.0,), (0.1, 0.3), 2.0)
        assert surface.terminal(0) == 0.0
        assert clean_closed_form_single(
            0.02, ((1.0,), (0.1, 0.3)), 0.02, 0.5, 2.0, 2.0
        ) == 0.0

    def test_absorbed_state_identically_zero(self):
        surface, _ = _solve_single(0.02, 0.02, 0.5, (), (0.1,), 2.0)
        assert np.all(surface.values[1] == 0.0)

    def test_direction_flip_negates(self):
        up, _ = _solve_single(0.01, 0.03, 0.4, (0.5,), (0.2, 0.1), 1.5, direction=1)
        down, _ = _solve_single(0.01, 0.03, 0.4, (0.5,), (0.2, 0.1), 1.5, direction=-1)
        assert np.max(np.abs(up.values[0] + down.values[0])) < 1e-14


class TestOdeAgainstClosedForm:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_piecewise_draws(self, seed):
        rng = np.random.default_rng(1000 + seed)
        r_D = rng.uniform(0.0, 0.05)
        S = rng.uniform(0.0, 0.1)
        L = rng.uniform(0.0, 1.0)
        T = rng.uniform(0.5, 4.0)
        n_breaks = rng.integers(0, 4)
        breaks = tuple(np.sort(rng.uniform(0.05 * T, 0.95 * T, n_breaks)))
        h_values = tuple(rng.uniform(0.01, 0.5, n_breaks + 1))
        direction = 1 if rng.random() < 0.5 else -1
        surface, table = _solve_single(
            r_D, S, L, breaks, h_values, T, direction, grid_points=2000
        )
        worst = max(
            abs(surface.values[0][idx] - clean_closed_form_single(
                r_D, table, S, L, T, float(t), direction
            ))
            for idx, t in enumerate(surface.grid)
        )
        assert worst < 1e-8

    def test_benchmark_portfolio_matches_closed_form(self, single_name_result):
        res = single_name_result
        con = res.portfolio.contracts[0]
        table = res.model.references[0]
        stride = max(1, len(res.grid) // 100)
        worst = max(
            abs(res.clean.values[0][idx] - clean_closed_form_single(
                res.cfg.r_D, table, con.spread, con.loss,
                res.portfolio.maturity, float(res.grid[idx]), con.direction,
            ))
            for idx in range(0, len(res.grid), stride)
        )
        assert worst < 1e-8

    def test_benchmark_clean_changes_sign_once(self, single_name_result):
        vals = single_name_result.clean.values[0]
        interior = vals[(single_name_result.grid > 0.0)
                        & (single_name_result.grid < single_name_result.grid[-1])]
        flips = np.sum(np.diff(np.sign(interior)) != 0.0)
        assert flips == 1


class TestLatticeStructure:
    def test_portfolio_linearity_without_contagion(self):
        # a33 = 0 decouples the entities: the heterogeneous portfolio value
        # in the empty state is the sum of the single-name values.
        r_D, T = 0.02, 2.0
        specs = [(0.01, 0.4, 1), (0.02, 0.5, -1), (0.03, 0.6, 1)]
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1, "a33": 0.0}, 3)
        portfolio = Portfolio(
            contracts=tuple(Contract(s, l, d) for s, l, d in specs),
            maturity=T, loss_investor=0.5, loss_counterparty=0.5,
        )
        grid = build_grid(T, min_points=2000)
        space = StateSpace(((1,), (2,), (3,)))
        surface = solve_clean(_cfg(r_D), model, portfolio, grid, space)
        total = sum(
            clean_closed_form_single(r_D, ((), (0.1,)), s, l, T, 0.0, d)
            for s, l, d in specs
        )
        assert surface.at0(0) == pytest.approx(total, abs=1e-8)

    def test_homogeneous_reduction_matches_full(self):
        model = contagion_from_dict({"a10": 0.05, "a20": 0.05, "a30": 0.1, "a33": 0.05}, 3)
        con = Contract(spread=0.02, loss=0.5)
        portfolio = Portfolio(
            contracts=(con, con, con), maturity=1.0,
            loss_investor=0.5, loss_counterparty=0.5,
        )
        grid = build_grid(1.0, min_points=500)
        homo = solve_clean(_cfg(0.01), model, portfolio, grid,
                           StateSpace(((1, 2, 3),)))
        full = solve_clean(_cfg(0.01), model, portfolio, grid,
                           StateSpace(((1,), (2,), (3,))))
        for mask in range(8):
            count = bin(mask).count("1")
            diff = np.max(np.abs(full.values[mask] - homo.values[count]))
            assert diff < 1e-10

    def test_empty_portfolio_all_zero(self):
        portfolio = Portfolio(
            contracts=(), maturity=1.0, loss_investor=0.5, loss_counterparty=0.5,
        )
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1}, 0)
        grid = build_grid(1.0, min_points=50)
        surface = solve_clean(_cfg(0.01), model, portfolio, grid,
                              StateSpace(()))
        assert np.all(surface.values[0] == 0.0)
