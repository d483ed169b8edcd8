"""Comparative-statics sweeps and the monotonicity helper."""

import json

import numpy as np
import pytest

import rxva.sweeps as sweeps
from rxva.market import ConfigError
from rxva.sweeps import (
    SweepSpec,
    _apply_param,
    default_grid,
    is_monotone,
    run_sweep,
)

from conftest import FIVE_NAME, SINGLE_NAME


def _load_doc():
    with open(SINGLE_NAME, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSweepSpec:
    def test_unknown_param(self):
        with pytest.raises(ValueError):
            SweepSpec(param="zeta", values=(0.1, 0.2))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec(param="a20", values=(0.2, 0.1))

    def test_band_rederivation_defaults(self):
        assert SweepSpec(param="a20", values=(0.1, 0.2)).rederive
        assert SweepSpec(param="a23", values=(0.1, 0.2)).rederive
        assert not SweepSpec(param="a33", values=(0.1, 0.2)).rederive
        assert not SweepSpec(param="alpha", values=(0.1, 0.2)).rederive


class TestDefaultGrid:
    def test_relative_span(self):
        grid = default_grid(0.1, points=5, span=0.5)
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.15)
        assert len(grid) == 5

    def test_zero_base_unit_interval(self):
        grid = default_grid(0.0, points=3)
        assert grid == (0.0, 0.5, 1.0)

    def test_negative_base_reorders(self):
        grid = default_grid(-0.1, points=3, span=0.5)
        assert grid[0] < grid[-1]


class TestApplyParam:
    def test_contagion_params(self):
        doc = _load_doc()
        out = _apply_param(doc, "a33", 0.42)
        assert out["contagion"]["a33"] == 0.42
        assert "a33" not in doc["contagion"]  # base untouched

    def test_alpha(self):
        doc = _load_doc()
        out = _apply_param(doc, "alpha", 0.7)
        assert out["portfolio"]["collateral"]["alpha"] == 0.7

    def test_band_width_recenters(self):
        doc = _load_doc()
        out = _apply_param(doc, "band_width", 0.05)
        band = out["counterparty_band"]
        assert band["mu_upper"] - band["mu_lower"] == pytest.approx(0.05)
        center = 0.5 * (band["mu_upper"] + band["mu_lower"])
        assert center == pytest.approx(0.2001)


class TestRunSweep:
    def test_alpha_sweep_rows(self):
        doc = _load_doc()
        spec = SweepSpec(param="alpha", values=(0.0, 0.5, 1.0))
        result = run_sweep(doc, spec, grid_points=300)
        assert all(r.ok for r in result.rows)
        v0 = result.column("v_hat_0")
        assert np.max(np.abs(np.diff(v0))) < 1e-12  # clean value is collateral-free
        assert np.all(np.isfinite(result.column("xva_upper")))
        assert np.all(np.isfinite(result.column("xi_f_val")))

    def test_band_width_sweep_widens_gap(self):
        doc = _load_doc()
        spec = SweepSpec(param="band_width", values=(0.02, 0.06, 0.10))
        result = run_sweep(doc, spec, grid_points=300)
        assert all(r.ok for r in result.rows)
        gap = result.column("xva_upper") - result.column("xva_lower")
        assert is_monotone(gap, "nondecreasing", slack=1e-12)

    def test_gamma_and_full_lattice_reach_every_point(self, monkeypatch):
        seen = []
        engine = sweeps.run_engine

        def spy(cfg, model, portfolio, model_P, **kwargs):
            seen.append(({c.direction for c in portfolio.contracts}, kwargs["force_full"]))
            return engine(cfg, model, portfolio, model_P, **kwargs)

        monkeypatch.setattr(sweeps, "run_engine", spy)
        with open(FIVE_NAME, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = SweepSpec(param="alpha", values=(0.0, 0.5))
        result = run_sweep(doc, spec, grid_points=100, allow_assumption_violation=True,
                           gamma=-1, force_full=True)
        assert all(r.ok for r in result.rows)
        assert seen == [({-1}, True)] * 2

    def test_refusal_names_the_table_key_given(self):
        # a shared reference table may be given as reference_table
        doc = _load_doc()
        doc["contagion"]["reference_table"] = doc["contagion"].pop("reference_tables")[0]
        with pytest.raises(ConfigError, match=r"contagion\.reference_table in"):
            run_sweep(doc, SweepSpec(param="a33", values=(0.1, 0.2)), grid_points=50)

    def test_failed_points_recorded_and_skipped(self):
        doc = _load_doc()
        spec = SweepSpec(param="band_width", values=(-0.1, 0.1))
        result = run_sweep(doc, spec, grid_points=200)
        assert not result.rows[0].ok
        assert "ConfigError" in result.rows[0].error
        assert result.rows[1].ok
        assert len(result.column("xva_upper")) == 1


class TestIsMonotone:
    def test_directions(self):
        up = np.array([0.0, 0.1, 0.1, 0.2])
        assert is_monotone(up, "nondecreasing")
        assert not is_monotone(up, "nonincreasing")
        assert is_monotone(up[::-1], "nonincreasing")
        assert is_monotone(np.array([1.0, 1.0 + 1e-12]), "constant")
        assert not is_monotone(np.array([1.0, 1.1]), "constant")

    def test_slack(self):
        wiggle = np.array([0.0, -1e-11, 0.1])
        assert is_monotone(wiggle, "nondecreasing", slack=1e-10)
        assert not is_monotone(wiggle, "nondecreasing", slack=1e-12)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            is_monotone(np.array([0.0, 1.0]), "upwards")
