"""Market data layer: tables, contagion intensities, validation."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxva.grids import choose_state_space
from rxva.market import (
    CollateralSpec,
    ConfigError,
    ContagionModel,
    Contract,
    MarketConfig,
    PiecewiseTable,
    Portfolio,
    _as_table,
    contagion_from_dict,
    cut,
    invert_hazard,
    load_config,
    market_from_dict,
    validate_assumptions,
)


# ---------------------------------------------------------------------------
# Intensities
# ---------------------------------------------------------------------------

class TestIntensity:
    def test_counterparty_affine(self):
        model = contagion_from_dict({"a20": 0.05, "a23": 0.01}, 3)
        assert model.table("C").at(0.7, 2) == pytest.approx(0.07, abs=1e-15)

    def test_reference_excludes_self(self):
        # a surviving entity counts the other defaults: |J \ {3}| == |J|
        model = contagion_from_dict({"a30": 0.01, "a33": 0.01}, 3)
        assert model.table(3).at(0.0, 0) == pytest.approx(0.01, abs=1e-15)
        assert model.table(3).at(0.0, 2) == pytest.approx(0.03, abs=1e-15)

    def test_general_mode_table(self):
        table = PiecewiseTable(breaks=(1.0,), values=((0.1,), (0.3,)))
        model = replace(contagion_from_dict({}, 1), references=(table,))
        assert model.table(1).at(0.5, 0) == 0.1
        assert model.table(1).at(1.5, 0) == 0.3
        assert model.table(1).at(1.0, 0) == 0.3  # right-continuous pieces

    def test_permutation_invariance_count_based(self):
        # states {1, 2} and {3, 4} have the same count, so the same intensities
        model = contagion_from_dict({"a30": 0.02, "a33": 0.015}, 4)
        a, b = bin(0b0011).count("1"), bin(0b1100).count("1")
        assert model.table(3).at(0.3, a) == model.table(1).at(0.3, b)
        assert model.table("C").at(0.3, a) == model.table("C").at(0.3, b)

    @given(
        a=st.floats(min_value=1e-4, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        mask=st.integers(min_value=0, max_value=14),
        t=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_parametric_intensities_positive(self, a, b, mask, t):
        model = contagion_from_dict(
            {"a10": a, "a13": b, "a20": a, "a23": b, "a30": a, "a33": b}, 4)
        count = bin(mask).count("1")
        assert model.table("I").at(t, count) > 0.0
        assert model.table("C").at(t, count) > 0.0
        for i in range(1, 5):
            if not mask >> (i - 1) & 1:
                assert model.table(i).at(t, count) > 0.0

    def test_breakpoints_merged_and_sorted(self):
        model = ContagionModel(
            n=1,
            investor=PiecewiseTable(breaks=(2.0,), values=((0.1,), (0.2,))),
            counterparty=PiecewiseTable(breaks=(1.0,), values=((0.1,), (0.2,))),
            references=(
                PiecewiseTable(breaks=(1.0, 3.0), values=((0.1,), (0.2,), (0.3,))),
            ),
        )
        assert model.breakpoints() == (1.0, 2.0, 3.0)

    def test_min_intensity_scans_counts_and_pieces(self):
        table = PiecewiseTable(breaks=(1.0,), values=((0.3, 0.2), (0.5,)))
        model = replace(contagion_from_dict({"a30": 0.1}, 2), counterparty=table)
        assert _min_intensity(model, "C", 2.0) == 0.2
        assert _min_intensity(model, "C", 0.5) == 0.2

    def test_min_intensity_reads_each_entity_table(self):
        model = replace(
            contagion_from_dict({"a10": 0.2}, 2),
            references=(_as_table(0.2), _as_table({"breaks": [1.0], "values": [0.3, 0.0]})),
        )
        assert _min_intensity(model, 1, 2.0) == 0.2
        assert _min_intensity(model, 2, 0.5) == 0.3
        assert _min_intensity(model, 2, 2.0) == 0.0


def _min_intensity(model, who, horizon):
    """Least h_who over the pieces of [0, horizon) and every default count,
    read as validate_assumptions reads it."""
    starts = cut(model.breakpoints(), horizon)[:-1]
    return model.table(who).rates(starts, np.arange(model.n + 1)).min()


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class TestPiecewiseTable:
    def test_row_clamping(self):
        table = PiecewiseTable(breaks=(), values=((0.1, 0.2),))
        assert table.at(0.0, 0) == 0.1
        assert table.at(0.0, 5) == 0.2  # clamped at the last entry

    def test_row_count_mismatch(self):
        with pytest.raises(ConfigError):
            PiecewiseTable(breaks=(1.0,), values=((0.1,),))

    def test_breaks_must_increase(self):
        with pytest.raises(ConfigError):
            PiecewiseTable(breaks=(2.0, 1.0), values=((0.1,), (0.2,), (0.3,)))

    def test_as_table_scalar_and_mapping(self):
        scalar = _as_table(0.25)
        assert scalar.at(3.0, 2) == 0.25
        mapped = _as_table({"breaks": [1.0], "values": [0.1, [0.2, 0.4]]})
        assert mapped.at(0.5, 7) == 0.1
        assert mapped.at(1.5, 1) == 0.4

    @given(data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_rates_equal_at_bit_for_bit(self, data):
        # no break or several; rows shorter than the counts read (clamped);
        # times at every break, before the first and past the last
        breaks = sorted(data.draw(st.sets(st.floats(-5.0, 5.0), max_size=4)))
        values = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
                                    min_size=len(breaks) + 1, max_size=len(breaks) + 1))
        table = PiecewiseTable(tuple(breaks), tuple(map(tuple, values)))
        times = breaks + [-6.0, 6.0] + data.draw(st.lists(st.floats(-6.0, 6.0), max_size=5))
        counts = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
        expected = np.array([[table.at(t, k) for k in counts] for t in times])
        got = table.rates(np.array(times), counts)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_cut_keeps_the_distinct_breaks_inside(self):
        assert cut((2.0, -1.0, 0.0, 0.5, 2.0, 3.0, 4.0), 3.0).tolist() == [0.0, 0.5, 2.0, 3.0]
        assert cut((), 1.5).tolist() == [0.0, 1.5]
        assert cut((1.0,), math.inf).tolist() == [0.0, 1.0, math.inf]


class TestInvertHazard:
    """The one inversion of a piecewise-constant cumulated hazard (pieces
    ending at ``edges``, intensity ``h``), shared by the Monte Carlo sampler
    and the initial margin."""

    EDGES = np.array([1.0, 2.0, 3.0])

    def test_target_equal_to_a_piece_mass_lands_on_its_edge(self):
        # the first piece holds 0.5 * 1.0 and the first two 0.5 + 2.0, exactly
        h = np.array([0.5, 2.0, 4.0])
        got = invert_hazard(self.EDGES, h, np.array([0.0, 0.0, 1.0, 1.0]),
                            np.array([0.5, 2.5, 2.0, 6.0]))
        assert got.tolist() == [1.0, 2.0, 2.0, 3.0]  # the last edge is reached, not passed

    def test_zero_intensity_piece_is_crossed_to_the_next_positive_one(self):
        h = np.array([1.0, 0.0, 2.0])
        got = invert_hazard(self.EDGES, h, np.array([0.5, 1.25, 1.25, 0.0]),
                            np.array([1.0, 0.5, 0.0, 0.0]))
        # 0.5 of the target is left at t = 1, none of it is spent on [1, 2);
        # even a zero target is reached only where the intensity is positive
        assert got.tolist() == [2.25, 2.25, 2.0, 0.0]

    def test_target_beyond_the_horizon_is_inf(self):
        h = np.array([1.0, 0.0, 2.0])
        got = invert_hazard(self.EDGES, h, np.array([0.0, 0.0, 2.5, 3.0, 1.5]),
                            np.array([2.5, 3.5, 1.5, 0.1, 2.5]))
        assert got[0] == 2.75
        assert np.isinf(got[1:]).all()

    def test_one_call_equals_per_element_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n_pieces in (1, 2, 3, 5):
            edges = np.sort(rng.uniform(0.0, 4.0, n_pieces))
            h = rng.uniform(0.0, 3.0, n_pieces) * (rng.random(n_pieces) < 0.8)
            t0 = np.concatenate([rng.uniform(0.0, edges[-1], 200), [0.0], edges])
            target = rng.exponential(size=t0.size)
            whole = invert_hazard(edges, h, t0, target)
            each = np.concatenate([invert_hazard(edges, h, t0[i:i + 1], target[i:i + 1])
                                   for i in range(t0.size)])
            assert np.array_equal(whole.view(np.uint64), each.view(np.uint64))
            one = invert_hazard(edges, h, t0, target[0])  # one number for every start
            assert np.array_equal(one, invert_hazard(edges, h, t0, np.full(t0.size, target[0])))
            assert np.isfinite(whole).any() and np.isinf(whole).any()


# ---------------------------------------------------------------------------
# Market config and band
# ---------------------------------------------------------------------------

class TestMarketConfig:
    def test_band_rates(self):
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.001, r_m_minus=0.001,
            mu_C_lower=0.1501, mu_C_upper=0.2501,
        )
        lo, hi = cfg.counterparty_band_rates()
        assert lo == pytest.approx(0.1501 - 0.001, abs=1e-15)
        assert hi == pytest.approx(0.2501 - 0.001, abs=1e-15)

    def test_benchmark_band_rates(self, five_name_setup):
        cfg = five_name_setup[0]
        lo, hi = cfg.counterparty_band_rates()
        assert lo == pytest.approx(0.05, abs=1e-12)
        assert hi == pytest.approx(0.10, abs=1e-12)

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            MarketConfig(
                r_D=0.0, r_f_plus=0.0, r_f_minus=0.0,
                r_m_plus=0.0, r_m_minus=0.0,
                mu_C_lower=0.3, mu_C_upper=0.2,
            )

    def test_bad_mu_true_string(self):
        with pytest.raises(ConfigError):
            MarketConfig(
                r_D=0.0, r_f_plus=0.0, r_f_minus=0.0,
                r_m_plus=0.0, r_m_minus=0.0,
                mu_C_lower=0.1, mu_C_upper=0.2, mu_C_true="midpoint",
            )


# ---------------------------------------------------------------------------
# Portfolio
# ---------------------------------------------------------------------------

class TestPortfolio:
    def test_contract_validation(self):
        with pytest.raises(ConfigError):
            Contract(spread=0.02, loss=-0.5)
        with pytest.raises(ConfigError):
            Contract(spread=0.02, loss=0.5, direction=0)

    def test_collateral_validation(self):
        with pytest.raises(ConfigError):
            CollateralSpec(alpha=1.5)
        with pytest.raises(ConfigError):
            CollateralSpec(beta=-0.1)
        with pytest.raises(ConfigError):
            CollateralSpec(q=1.0)
        with pytest.raises(ConfigError):
            CollateralSpec(delta=0.0)

    def test_portfolio_validation(self):
        con = Contract(spread=0.02, loss=0.5)
        with pytest.raises(ConfigError):
            Portfolio(contracts=(con,), maturity=0.0,
                      loss_investor=0.5, loss_counterparty=0.5)
        with pytest.raises(ConfigError):
            Portfolio(contracts=(con,), maturity=1.0,
                      loss_investor=1.5, loss_counterparty=0.5)

    def test_flipped(self):
        con = Contract(spread=0.02, loss=0.5, direction=1)
        pf = Portfolio(contracts=(con, con), maturity=1.0,
                       loss_investor=0.5, loss_counterparty=0.5)
        assert all(c.direction == -1 for c in pf.flipped().contracts)

    def test_homogeneity_detection(self):
        a = Contract(spread=0.02, loss=0.5)
        b = Contract(spread=0.03, loss=0.5)
        model = contagion_from_dict({"a30": 0.1}, 2)
        homo = Portfolio(contracts=(a, a), maturity=1.0,
                         loss_investor=0.5, loss_counterparty=0.5)
        hetero = Portfolio(contracts=(a, b), maturity=1.0,
                           loss_investor=0.5, loss_counterparty=0.5)
        assert choose_state_space(model, homo).classes == ((1, 2),)
        assert choose_state_space(model, hetero).classes == ((1,), (2,))
        per_entity = replace(
            model,
            references=(
                PiecewiseTable(breaks=(), values=((0.1,),)),
                PiecewiseTable(breaks=(), values=((0.2,),)),
            ),
        )
        assert choose_state_space(per_entity, homo).classes == ((1,), (2,))
        # per-entity tables that are all equal leave the names exchangeable
        equal = replace(model, references=tuple(
            PiecewiseTable(breaks=(), values=((0.1,),)) for _ in range(2)))
        assert choose_state_space(equal, homo).classes == ((1, 2),)


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_single_name_benchmark_passes(self, single_name_setup):
        cfg, model, portfolio, _ = single_name_setup
        report = validate_assumptions(cfg, model, horizon=portfolio.maturity)
        assert report.passed
        assert report.failures() == []

    def test_five_name_benchmark_fails_on_funding(self, five_name_setup):
        cfg, model, portfolio, _ = five_name_setup
        report = validate_assumptions(cfg, model, horizon=portfolio.maturity)
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert any("r_f_plus" in n for n in names)

    def test_band_floor_at_discount_rate_fails(self):
        cfg = MarketConfig(
            r_D=0.05, r_f_plus=0.01, r_f_minus=0.01,
            r_m_plus=0.0, r_m_minus=0.0,
            mu_C_lower=0.05, mu_C_upper=0.2,
        )
        model = contagion_from_dict({"a10": 0.1, "a30": 0.2}, 1)
        report = validate_assumptions(cfg, model)
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "r_D < mu_C_lower" in names

    def test_true_rate_outside_band_fails(self):
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.0, r_m_minus=0.0,
            mu_C_lower=0.1, mu_C_upper=0.2, mu_C_true=0.25,
        )
        model = contagion_from_dict({"a10": 0.1, "a30": 0.2}, 1)
        report = validate_assumptions(cfg, model)
        assert not report.passed

    def test_true_rate_at_band_edge_passes(self):
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.0, r_m_minus=0.0,
            mu_C_lower=0.1, mu_C_upper=0.2, mu_C_true=0.2,
        )
        model = contagion_from_dict({"a10": 0.1, "a30": 0.2}, 1)
        assert validate_assumptions(cfg, model).passed

    def test_model_true_rate_leaving_band_fails(self):
        # h_C(t, J) + r_D on the second piece is 0.101 at J = 0 but 0.201 at
        # J = 1, above mu_upper; the first piece stays in the band
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.0, r_m_minus=0.0,
            mu_C_lower=0.101, mu_C_upper=0.15, mu_C_true="model",
        )
        table = _as_table({"breaks": [1.0], "values": [[0.1, 0.12], [0.1, 0.2]]})
        model = replace(contagion_from_dict({"a10": 0.1, "a30": 0.2}, 2), counterparty=table)
        report = validate_assumptions(cfg, model)
        assert [c.name for c in report.failures()] == ["mu_C_true <= mu_C_upper"]
        assert validate_assumptions(cfg, model, horizon=1.0).passed

    def test_five_name_model_true_rate_within_band(self, five_name_setup):
        # at J = 5 the rate is 0.10010000000000001: within mu_upper + 1e-15
        cfg, model, portfolio, _ = five_name_setup
        report = validate_assumptions(cfg, model, horizon=portfolio.maturity)
        assert not {c.name for c in report.failures()} & {
            "mu_C_lower <= mu_C_true", "mu_C_true <= mu_C_upper"}

    def test_multi_name_adds_borrow_rate_check(self):
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.5,
            r_m_plus=0.0, r_m_minus=0.0,
            mu_C_lower=0.1, mu_C_upper=0.2,
        )
        single = contagion_from_dict({"a10": 0.1, "a30": 0.2}, 1)
        multi = contagion_from_dict({"a10": 0.1, "a30": 0.2}, 2)
        assert validate_assumptions(cfg, single).passed
        report = validate_assumptions(cfg, multi)
        assert not report.passed
        assert any("r_f_minus" in c.name for c in report.failures())

    def test_zero_intensity_of_a_later_entity_fails(self):
        # mu_2 = h_2 + r_D = r_D when entity 2 has zero intensity
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.001, r_m_minus=0.001,
            mu_C_lower=0.1501, mu_C_upper=0.2501,
        )
        model = replace(
            contagion_from_dict({"a10": 0.2}, 2), references=(_as_table(0.2), _as_table(0.0))
        )
        report = validate_assumptions(cfg, model)
        assert not report.passed
        assert report.checks[0].rhs == cfg.r_D

    def test_piece_before_time_zero_is_not_read(self, single_name_setup):
        # the zero piece [-2, -1) ends before t = 0, where the pass and the
        # sampler start; from 0 on the table is the shipped one
        cfg, model, portfolio, _ = single_name_setup
        early = replace(model, references=(
            _as_table({"breaks": [-2.0, -1.0, 2.0], "values": [0.5, 0.0, 0.2999, 0.0999]}),))
        for horizon in (portfolio.maturity, None):
            report = validate_assumptions(cfg, early, horizon=horizon)
            assert report == validate_assumptions(cfg, model, horizon=horizon)
            assert report.passed

    @given(data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_positive_breaks_validate_as_a_scan_of_every_piece(self, data):
        # with every break positive, the checks are those of reading each
        # table with ``at`` at 0 and at every break below the horizon
        def table():
            breaks = sorted(data.draw(st.sets(st.sampled_from([0.5, 1.0, 2.0, 4.0]))))
            rows = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2]), min_size=1, max_size=3)
            return _as_table({"breaks": breaks, "values": data.draw(
                st.lists(rows, min_size=len(breaks) + 1, max_size=len(breaks) + 1))})

        n = data.draw(st.integers(0, 3))
        model = ContagionModel(n=n, investor=table(), counterparty=table(), references=tuple(
            table() for _ in range(data.draw(st.sampled_from(sorted({1, n or 1}))))))
        rates = st.sampled_from([0.0, 0.01, 0.06, 0.15])
        lower, width = data.draw(rates), data.draw(rates)
        cfg = MarketConfig(
            r_D=data.draw(rates), r_f_plus=data.draw(rates), r_f_minus=data.draw(rates),
            r_m_plus=0.0, r_m_minus=0.0, mu_C_lower=lower, mu_C_upper=lower + width,
            mu_C_true=data.draw(st.sampled_from([None, "model", 0.1])))
        horizon = data.draw(st.sampled_from([None, 0.5, 1.5, 3.0]))
        times = [0.0] + [b for b in model.breakpoints() if horizon is None or b < horizon]

        def scan(who):
            return [model.table(who).at(t, k) + cfg.r_D for t in times for k in range(n + 1)]

        mu_min = min([min(scan(i)) for i in range(1, n + 1)] + [min(scan("I")), lower])
        expected = [("r_D < min(mu_1..mu_N, mu_I, mu_C_lower)", cfg.r_D, mu_min),
                    ("r_f_plus < min(mu_1..mu_N, mu_I, mu_C_lower)", cfg.r_f_plus, mu_min),
                    ("r_D < mu_C_lower", cfg.r_D, lower)]
        if n > 1:
            expected.append(("r_f_minus < min(mu_1..mu_N, mu_I, mu_C_lower)",
                             cfg.r_f_minus, mu_min))
        if cfg.mu_C_true is not None:
            mu_true = scan("C") if cfg.mu_C_true == "model" else [cfg.mu_C_true]
            expected += [("mu_C_lower <= mu_C_true", lower - 1e-15, min(mu_true) + 1e-15),
                         ("mu_C_true <= mu_C_upper", max(mu_true) - 1e-15,
                          cfg.mu_C_upper + 1e-15)]
        report = validate_assumptions(cfg, model, horizon=horizon)
        assert [(c.name, c.lhs, c.rhs) for c in report.checks] == expected
        assert all(type(c.rhs) is float for c in report.checks)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _doc_with(where, key, value):
    """A valid single-name config document with one entry replaced."""
    doc = {
        "rates": {"r_D": 0.001, "r_f_plus": 0.001, "r_f_minus": 0.001,
                  "r_m_plus": 0.001, "r_m_minus": 0.001},
        "counterparty_band": {"mu_lower": 0.15, "mu_upper": 0.25, "mu_true": 0.2},
        "portfolio": {
            "contracts": [{"spread": 0.02, "loss": 0.5}],
            "maturity": 1.0, "L_I": 0.5, "L_C": 0.5,
        },
        "contagion": {"a10": 0.1, "a20": 0.15, "a30": 0.2},
    }
    market_from_dict(doc)
    node = doc
    for step in where:
        node = node[step]
    node[key] = value
    return doc


class TestConfigLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_keys(self):
        with pytest.raises(ConfigError, match="rates"):
            market_from_dict({})
        with pytest.raises(ConfigError, match="maturity"):
            market_from_dict({
                "rates": {"r_D": 0.0, "r_f_plus": 0.0, "r_f_minus": 0.0,
                          "r_m_plus": 0.0, "r_m_minus": 0.0},
                "counterparty_band": {"mu_lower": 0.1, "mu_upper": 0.2},
                "portfolio": {"contracts": [], "L_I": 0.5, "L_C": 0.5},
                "contagion": {},
            })

    @pytest.mark.parametrize("where, key", [
        (("portfolio", "contracts", 0), "spread"),
        (("portfolio",), "maturity"),
        (("rates",), "r_f_plus"),
        (("counterparty_band",), "mu_true"),
        (("contagion",), "a30"),
        (("contagion",), "investor_table"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, where, key, bad):
        with pytest.raises(ConfigError, match="finite"):
            market_from_dict(_doc_with(where, key, bad))

    @pytest.mark.parametrize("digits", [401, 5001], ids=["over_float", "over_str_limit"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    def test_huge_integers_rejected_by_size(self, digits, sign):
        # an integer beyond the float range is reported by its digit count;
        # one beyond Python's int-to-str limit too, in process where JSON
        # parsing cannot stop it first
        with pytest.raises(ConfigError, match=f"maturity must be finite, got an integer "
                                              f"of {digits} digits$"):
            market_from_dict(_doc_with(("portfolio",), "maturity", sign * 10 ** (digits - 1)))

    @pytest.mark.parametrize("where, key, bad", [
        (("portfolio",), "maturity", "1"),
        (("portfolio", "contracts", 0), "spread", "0.02"),
        (("portfolio", "contracts", 0), "direction", True),
        (("rates",), "r_D", True),
        (("counterparty_band",), "mu_lower", "0.15"),
        (("contagion",), "a30", False),
        (("contagion",), "investor_table", True),
        (("contagion",), "reference_tables", [{"breaks": [True], "values": [0.1, 0.2]}]),
        (("contagion",), "reference_tables", [{"values": [[0.1, True]]}]),
    ])
    def test_strings_and_booleans_rejected(self, where, key, bad):
        # configs hold JSON numbers: a string or a boolean is not coerced
        with pytest.raises(ConfigError, match="must be a number"):
            market_from_dict(_doc_with(where, key, bad))

    @pytest.mark.parametrize("spec", [
        "0.2",
        {"breaks": [1.0]},
        {"breaks": 1.0, "values": [0.1, 0.2]},
        {"values": ["0.1"]},
    ])
    def test_malformed_table_rejected(self, spec):
        doc = {
            "rates": {"r_D": 0.001, "r_f_plus": 0.001, "r_f_minus": 0.001,
                      "r_m_plus": 0.001, "r_m_minus": 0.001},
            "counterparty_band": {"mu_lower": 0.15, "mu_upper": 0.25},
            "portfolio": {
                "contracts": [{"spread": 0.02, "loss": 0.5}],
                "maturity": 1.0, "L_I": 0.5, "L_C": 0.5,
            },
            "contagion": {"a20": 0.15, "a30": 0.2, "investor_table": spec},
        }
        with pytest.raises(ConfigError, match="table|intensity"):
            market_from_dict(doc)

    @pytest.mark.parametrize("block", [None, {}, {"beta": 0.0, "q": 0.99}])
    def test_collateral_defaults(self, block):
        # an absent or partial collateral block takes CollateralSpec's defaults
        doc = _doc_with(("portfolio",), "collateral", block)
        if block is None:
            del doc["portfolio"]["collateral"]
        assert market_from_dict(doc)[2].collateral == CollateralSpec()

    def test_collateral_value_must_be_a_number(self):
        with pytest.raises(ConfigError, match="collateral.q must be a number"):
            market_from_dict(_doc_with(("portfolio",), "collateral", {"q": "0.99"}))

    def test_table_break_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite"):
            _as_table({"breaks": [float("nan")], "values": [0.1, 0.2]})

    def test_round_trip_single_name(self, single_name_setup):
        cfg, model, portfolio, model_P = single_name_setup
        assert portfolio.n == 1
        assert portfolio.contracts[0].spread == 2.0
        assert portfolio.contracts[0].loss == 10.0
        assert cfg.mu_C_true == pytest.approx(0.2001)
        assert model_P is model  # no separate physical block

    def test_model_holds_tables_only(self):
        assert [f.name for f in fields(ContagionModel)] == [
            "n", "investor", "counterparty", "references"]

    def test_affine_pair_is_a_one_row_table(self):
        model = contagion_from_dict({"a20": 0.05, "a23": 0.01, "a30": 0.02}, 3)
        assert model.counterparty == PiecewiseTable(
            breaks=(), values=((0.05, 0.05 + 0.01, 0.05 + 0.01 * 2, 0.05 + 0.01 * 3),))
        assert model.references == (PiecewiseTable(breaks=(), values=((0.02,) * 4,)),)
        assert model.investor == PiecewiseTable(breaks=(), values=((0.0,) * 4,))

    @pytest.mark.parametrize("key, pair, table", [
        ("investor_table", ("a10", "a13"), "investor"),
        ("counterparty_table", ("a20", "a23"), "counterparty"),
        ("reference_table", ("a30", "a33"), "references"),
        ("reference_tables", ("a30", "a33"), "references"),
    ])
    def test_table_replaces_affine_pair(self, key, pair, table):
        spec = {"breaks": [0.5], "values": [0.3, [0.1, 0.2]]}
        doc = dict.fromkeys(pair, 0.7)
        doc[key] = [spec] if key == "reference_tables" else spec
        model = contagion_from_dict(doc, 2)
        want = PiecewiseTable(breaks=(0.5,), values=((0.3,), (0.1, 0.2)))
        assert getattr(model, table) == ((want,) if table == "references" else want)

    def test_physical_block_parsed(self, tmp_path):
        doc = {
            "rates": {"r_D": 0.0, "r_f_plus": 0.0, "r_f_minus": 0.0,
                      "r_m_plus": 0.0, "r_m_minus": 0.0},
            "counterparty_band": {"mu_lower": 0.1, "mu_upper": 0.2},
            "portfolio": {
                "contracts": [{"spread": 0.02, "loss": 0.5}],
                "maturity": 1.0, "L_I": 0.5, "L_C": 0.5,
            },
            "contagion": {"a10": 0.1, "a20": 0.15, "a30": 0.2},
            "physical_contagion": {"a10": 0.1, "a20": 0.15, "a30": 0.3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _, model, _, model_P = load_config(path)
        assert model.references[0].at(0.0, 0) == 0.2
        assert model_P.references[0].at(0.0, 0) == 0.3
