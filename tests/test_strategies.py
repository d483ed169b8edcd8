"""Replication holdings: wealth identity, collateral leg, and position values."""

import copy
import json

import numpy as np
import pytest

from rxva.engine import run_engine
from rxva.market import load_config, market_from_dict
from rxva.oracle import DRIFT_STRIDE
from rxva.strategies import robust_strategy, wealth_drift
from rxva.xva import REGIME_HI, all_variants

from conftest import FIVE_NAME, SINGLE_NAME, TWO_CLASS
from references import wealth
from test_oracle import _GENERAL_THREE_NAME


def _sample_nodes(result, n_nodes=7):
    return np.linspace(0, len(result.grid) - 1, n_nodes).astype(int).tolist()


def _node(result, t):
    """The first grid node at or after t."""
    return int(np.searchsorted(result.grid, t))


def _holdings(result, which, j):
    return robust_strategy(result.space, result.xva[which].surface, result.clean,
                           result.margins.m, result.portfolio, j)


class TestWealthIdentity:
    @pytest.mark.parametrize("which", ["upper", "actual", "lower"])
    def test_single_name(self, single_name_result, which):
        res = single_name_result
        for j in _sample_nodes(res):
            assert wealth(_holdings(res, which, j)) == pytest.approx(
                res.xva[which].surface[:, j], abs=1e-9)

    def test_five_name_homogeneous(self, five_name_result):
        res = five_name_result
        for j in _sample_nodes(res, n_nodes=4):
            holdings = _holdings(res, "upper", j)
            assert wealth(holdings) == pytest.approx(
                res.xva["upper"].surface[:, j], abs=1e-9)
            # one class: the key is the default count
            alive = holdings[1]
            assert alive.sum(axis=1).tolist() == [res.portfolio.n - k for k in res.space.keys]

    def test_collateral_leg_carries_margin(self, five_name_result):
        res = five_name_result
        for j in _sample_nodes(res, n_nodes=5):
            psi_m = _holdings(res, "upper", j)[5]
            assert psi_m == pytest.approx(-res.margins.m[:, j], abs=1e-15)


class TestHoldings:
    def test_counterparty_position_sign_tracks_regime(self, single_name_result):
        # xi_C = u* - theta_C_tilde = -z_C: the account is shorted exactly
        # when the switching rule sits on the high extreme
        res = single_name_result
        regime = res.xva["upper"].regime[0]
        for j in range(0, len(res.grid), 97):
            xi_C = _holdings(res, "upper", j)[3][0]
            if xi_C < -1e-14:
                assert int(regime[j]) == REGIME_HI
            elif xi_C > 1e-14:
                assert int(regime[j]) != REGIME_HI

    def test_reference_leg_is_value_drop(self, single_name_result):
        res = single_name_result
        u = res.xva["upper"].surface
        j = _node(res, 1.0)
        xi_ref, alive = _holdings(res, "upper", j)[:2]
        assert xi_ref[0, 0] == pytest.approx(u[0, j] - u[1, j], abs=1e-14)
        # after the default the name holds no position
        assert alive.tolist() == [[True], [False]]
        assert xi_ref[1, 0] == 0.0

    def test_homogeneous_slots_share_value(self, five_name_result):
        res = five_name_result
        xi_ref, alive = _holdings(res, "upper", _node(res, 0.5))[:2]
        vals = xi_ref[2][alive[2]]
        assert len(vals) == 3
        assert max(vals) - min(vals) == 0.0
        assert xi_ref[2][~alive[2]].tolist() == [0.0, 0.0]


class TestEntityColumns:
    def test_grouped_and_full_lattice_agree_name_by_name(self):
        # names 1 and 3 hold contract A and names 2 and 4 contract B: the
        # grouped run reads classes (1, 3) and (2, 4), the full run one class
        # per name, and each puts a name's position in that name's column
        doc = copy.deepcopy(_GENERAL_THREE_NAME)
        doc["contagion"] = {"a10": 0.2, "a20": 0.2, "a30": 0.2, "a33": 0.1}
        doc["counterparty_band"] = {"mu_lower": 0.1501, "mu_upper": 0.6501,
                                    "mu_true": 0.2001}
        a, b = doc["portfolio"]["contracts"][:2]
        doc["portfolio"]["contracts"] = [a, b, a, b]
        grouped, full = (run_engine(*market_from_dict(doc), variants=("upper",),
                                    grid_points=400, force_full=force_full)
                         for force_full in (False, True))
        assert grouped.space.classes == ((1, 3), (2, 4)) and full.space.size == 16
        assert np.array_equal(grouped.grid, full.grid)
        worst_ab = 0.0
        for j in range(0, len(grouped.grid), 20):
            root = _holdings(grouped, "upper", j)[0][0]
            assert root == pytest.approx(_holdings(full, "upper", j)[0][0], abs=1e-12)
            assert root[0] == root[2] and root[1] == root[3]
            worst_ab = max(worst_ab, abs(root[0] - root[1]))
        # the A and B columns differ, so a column in the wrong place fails
        assert worst_ab > 1e-4


class TestBandCollapse:
    def test_actual_equals_robust_holdings(self):
        with open(SINGLE_NAME, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        true = doc["counterparty_band"]["mu_true"]
        doc["counterparty_band"]["mu_lower"] = true
        doc["counterparty_band"]["mu_upper"] = true
        cfg, model, portfolio, model_P = market_from_dict(doc)
        res = run_engine(cfg, model, portfolio, model_P,
                         variants=("actual", "upper"), grid_points=400)
        for t in (0.0, 1.1, 2.5):
            j = _node(res, t)
            for rob, act in zip(_holdings(res, "upper", j), _holdings(res, "actual", j)):
                assert rob == pytest.approx(act, abs=1e-10)


@pytest.fixture(scope="module",
                params=[(path, full) for path in (SINGLE_NAME, FIVE_NAME, TWO_CLASS)
                        for full in (False, True)],
                ids=lambda case: f"{case[0].stem}-{'full' if case[1] else 'grouped'}")
def lattice_result(request):
    """Each shipped config at 400 steps, grouped and ``--full-lattice``."""
    path, full = request.param
    cfg, model, portfolio, model_P = load_config(path)
    return run_engine(cfg, model, portfolio, model_P, variants=all_variants(cfg),
                      grid_points=400, force_full=full, allow_assumption_violation=True)


class TestNodeAxis:
    def test_one_call_equals_the_per_node_calls(self, lattice_result):
        res = lattice_result
        nodes = np.arange(0, len(res.grid), 23)
        size, n = res.space.size, res.portfolio.n
        rng = np.random.default_rng(7)
        mu = rng.uniform(0.01, 0.5, (len(nodes), size, 1 + n))
        mu_C = rng.uniform(0.01, 0.5, (len(nodes), size))
        for which in res.xva:
            many = _holdings(res, which, nodes)
            each = [_holdings(res, which, int(j)) for j in nodes]
            assert many[0].shape == (len(nodes), size, n)
            assert many[1].shape == (size, n)  # alive does not depend on the node
            for k, array in enumerate(many):
                stacked = each[0][1] if k == 1 else np.stack([h[k] for h in each])
                assert np.array_equal(array, stacked), (which, k)
            drift = wealth_drift(res.cfg, res.portfolio, many, mu, mu_C)
            assert drift.shape == (len(nodes), size)
            for i, holdings in enumerate(each):
                assert np.array_equal(
                    drift[i], wealth_drift(res.cfg, res.portfolio, holdings, mu[i], mu_C[i]))

    def test_reference_position_is_its_moves_jump(self, two_class_result):
        # read through the lattice's moves, not through the key's digits
        res = two_class_result
        space = res.space
        nodes = np.arange(0, len(res.grid), DRIFT_STRIDE)
        for which in res.xva:
            u = res.xva[which].surface[:, nodes]
            xi_ref = _holdings(res, which, nodes)[0]
            for key in space.keys:
                expected = np.zeros((len(nodes), space.n))
                for child, entities in space.moves(key):
                    for e in entities:
                        expected[:, e - 1] = u[key] - u[child]
                assert np.array_equal(xi_ref[:, key], expected), (which, key)
