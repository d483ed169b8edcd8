"""Replication holdings: wealth identity, collateral leg, and position values."""

import json

import numpy as np
import pytest

from rxva.engine import run_engine
from rxva.market import market_from_dict
from rxva.strategies import robust_strategy
from rxva.xva import REGIME_HI

from conftest import SINGLE_NAME
from references import wealth


def _sample_points(result, n_times=7):
    grid = result.grid
    idx = np.linspace(0, len(grid) - 1, n_times).astype(int)
    return [float(grid[i]) for i in idx]


class TestWealthIdentity:
    @pytest.mark.parametrize("which", ["upper", "actual", "lower"])
    def test_single_name(self, single_name_result, which):
        res = single_name_result
        surf = res.xva[which].surface
        for key in res.space.keys:
            for t in _sample_points(res):
                snap = robust_strategy(surf, res.clean, res.margins.m,
                                       res.portfolio, t, key)
                assert wealth(snap) == pytest.approx(surf.at(key, t), abs=1e-9)

    def test_five_name_homogeneous(self, five_name_result):
        res = five_name_result
        surf = res.xva["upper"].surface
        for key in res.space.keys:
            for t in _sample_points(res, n_times=4):
                snap = robust_strategy(surf, res.clean, res.margins.m,
                                       res.portfolio, t, key)
                assert wealth(snap) == pytest.approx(surf.at(key, t), abs=1e-9)
                assert len(snap.alive) == res.portfolio.n - key

    def test_collateral_leg_carries_margin(self, five_name_result):
        res = five_name_result
        surf = res.xva["upper"].surface
        for t in _sample_points(res, n_times=5):
            snap = robust_strategy(surf, res.clean, res.margins.m,
                                   res.portfolio, t, 0)
            assert snap.psi_m_value == pytest.approx(
                -res.margins.m.at(0, t), abs=1e-15
            )


class TestHoldings:
    def test_counterparty_position_sign_tracks_regime(self, single_name_result):
        # xi_C = u* - theta_C_tilde = -z_C: the account is shorted exactly
        # when the switching rule sits on the high extreme
        res = single_name_result
        xres = res.xva["upper"]
        surf = xres.surface
        for idx in range(0, len(res.grid), 97):
            t = float(res.grid[idx])
            snap = robust_strategy(surf, res.clean, res.margins.m,
                                   res.portfolio, t, 0)
            regime = int(xres.regime[0][idx])
            if snap.xi_C_value < -1e-14:
                assert regime == REGIME_HI
            elif snap.xi_C_value > 1e-14:
                assert regime != REGIME_HI

    def test_reference_leg_is_value_drop(self, single_name_result):
        res = single_name_result
        surf = res.xva["upper"].surface
        t = 1.0
        snap = robust_strategy(surf, res.clean, res.margins.m,
                               res.portfolio, t, 0)
        child = surf.at(1, t)
        assert snap.xi_ref_values[1] == pytest.approx(
            surf.at(0, t) - child, abs=1e-14
        )

    def test_homogeneous_slots_share_value(self, five_name_result):
        res = five_name_result
        surf = res.xva["upper"].surface
        snap = robust_strategy(surf, res.clean, res.margins.m,
                               res.portfolio, 0.5, 2)
        vals = list(snap.xi_ref_values.values())
        assert len(vals) == 3
        assert max(vals) - min(vals) == 0.0


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
            rob = robust_strategy(res.xva["upper"].surface, res.clean,
                                  res.margins.m, res.portfolio, t, 0)
            act = robust_strategy(res.xva["actual"].surface, res.clean,
                                  res.margins.m, res.portfolio, t, 0)
            assert rob.xi_I_value == pytest.approx(act.xi_I_value, abs=1e-10)
            assert rob.xi_C_value == pytest.approx(act.xi_C_value, abs=1e-10)
            assert rob.xi_f_value == pytest.approx(act.xi_f_value, abs=1e-10)
            assert rob.xi_ref_values[1] == pytest.approx(
                act.xi_ref_values[1], abs=1e-10
            )
