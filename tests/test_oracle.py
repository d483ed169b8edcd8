"""Monte Carlo oracle: samplers, estimators, and pathwise audits."""

import copy
import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rxva import oracle
from rxva.engine import run_engine
from rxva.grids import build_grid
from rxva.market import (
    Contract,
    MarketConfig,
    Portfolio,
    contagion_from_dict,
    load_config,
    market_from_dict,
)
from rxva.oracle import (
    drift_identity_error,
    is_linear_driver,
    mc_clean_value,
    mc_xva_closeout,
    pathwise_wealth_check,
    simulate_paths,
    verify,
)
from rxva.xva import VARIANTS, resolve_true_h_c

from conftest import FIVE_NAME, SINGLE_NAME
from references import interp_at
from test_xva import _multi_name_case, _single_name_case


def _cfg(r_D=0.0):
    return MarketConfig(
        r_D=r_D, r_f_plus=r_D, r_f_minus=r_D, r_m_plus=r_D, r_m_minus=r_D,
        mu_C_lower=0.5, mu_C_upper=0.5,
    )


def _portfolio(n, S=0.02, L=0.5, T=1.0, direction=1):
    con = Contract(spread=S, loss=L, direction=direction)
    return Portfolio(contracts=(con,) * n, maturity=T,
                     loss_investor=0.5, loss_counterparty=0.5)


def _invert_hazard(h_of_t, breaks, t0, target, horizon):
    prev = t0
    remaining = target
    for edge in [b for b in breaks if t0 < b < horizon] + [horizon]:
        h = h_of_t(0.5 * (prev + edge))
        span = edge - prev
        if h > 0.0 and h * span >= remaining:
            return prev + remaining / h
        remaining -= h * span
        prev = edge
    return math.inf


def _reference_paths(model, portfolio, n_paths, seed, include_parties, h_C_true):
    """Scalar sampler in round-major order: in each round, each running path
    in turn draws one exponential per clock (names in id order, investor,
    counterparty) and reads those of its surviving names and the parties."""
    rng = np.random.default_rng(seed)
    n, T = portfolio.n, portfolio.maturity
    breaks = list(model.breakpoints())
    state = [(0, 0.0)] * n_paths  # (mask of defaulted names, time of the last default)
    events = [[] for _ in range(n_paths)]
    party = [(None, math.inf)] * n_paths
    running = range(n_paths)
    while running:
        still = []
        for p in running:
            mask, t = state[p]
            k = len(events[p])
            clocks = [(i, lambda tt, i=i: model.table(i).at(tt, k))
                      for i in range(1, n + 1)]
            if include_parties:
                clocks.append(("I", lambda tt: model.table("I").at(tt, k)))
                clocks.append(("C", lambda tt: h_C_true.at(tt, k)))
            best_t, best_who = math.inf, None
            for (who, h), draw in zip(clocks, [rng.exponential() for _ in clocks]):
                if who not in ("I", "C") and mask >> (who - 1) & 1:
                    continue  # a defaulted name's draw is not read
                cand = _invert_hazard(h, breaks, t, draw, T)
                if cand < best_t:
                    best_t, best_who = cand, who
            if best_who is None or best_t >= T:
                continue
            if best_who in ("I", "C"):
                party[p] = (best_who, best_t)
                continue
            events[p].append((best_t, best_who))
            state[p] = (mask | 1 << (best_who - 1), best_t)
            still.append(p)
        running = still
    return [(ev, who, when) for ev, (who, when) in zip(events, party)]


_PARTY = {oracle.PARTY_NONE: None, oracle.PARTY_I: "I", oracle.PARTY_C: "C"}


def _events(paths, p):
    """Reference defaults of path p as (time, 1-based entity) pairs, in order."""
    k = np.count_nonzero(paths.event_entity[p])
    return list(zip(paths.event_time[p, :k].tolist(), paths.event_entity[p, :k].tolist()))


_GENERAL_THREE_NAME = {
    "rates": {"r_D": 0.001, "r_f_plus": 0.001, "r_f_minus": 0.001,
              "r_m_plus": 0.001, "r_m_minus": 0.001},
    "counterparty_band": {"mu_lower": 0.05, "mu_upper": 0.9, "mu_true": "model"},
    "contagion": {
        "investor_table": {"breaks": [0.7], "values": [[0.1, 0.3], [0.2, 0.5, 0.6]]},
        "counterparty_table": {"breaks": [1.5], "values": [[0.15, 0.25, 0.4], 0.3]},
        "reference_tables": [
            {"breaks": [0.5, 1.2], "values": [[0.3, 0.6], [0.2, 0.9, 1.1], [0.4]]},
            {"breaks": [1.0], "values": [[0.5, 0.7, 0.9], [0.1, 0.2]]},
            0.35,
        ],
    },
    "portfolio": {
        "maturity": 2.0, "L_I": 0.5, "L_C": 0.5,
        "contracts": [{"spread": 0.02, "loss": 0.5},
                      {"spread": 0.03, "loss": 0.4},
                      {"spread": 0.01, "loss": 0.6, "direction": -1}],
    },
}


# tables that break at 0.0, at T = 2.0 and beyond it: a row in force only
# outside [0, T) is 9.0, which no sampled time may read
_EDGE_BREAKS = copy.deepcopy(_GENERAL_THREE_NAME)
_EDGE_BREAKS["contagion"] = {
    "investor_table": {"breaks": [0.0, 0.7], "values": [9.0, [0.1, 0.3], [0.2, 0.5, 0.6]]},
    "counterparty_table": {"breaks": [1.5, 2.0], "values": [[0.15, 0.25, 0.4], 0.3, 9.0]},
    "reference_tables": [
        {"breaks": [0.0, 1.2, 2.5], "values": [9.0, [0.2, 0.9, 1.1], [0.4, 0.6], 9.0]},
        {"breaks": [1.0, 2.0, 3.0], "values": [[0.5, 0.7, 0.9], [0.1, 0.2], 9.0, 9.0]},
        0.35,
    ],
}


class TestSamplerExactness:
    """The round-major sampler gives the scalar sampler's paths bit for bit."""

    @pytest.mark.parametrize("include_parties", [False, True])
    @pytest.mark.parametrize("setup", ["single", "five", "general", "edge_breaks"])
    def test_paths_match_scalar_reference(self, setup, include_parties):
        self._check(setup, include_parties)

    @pytest.mark.parametrize("include_parties", [False, True])
    @pytest.mark.parametrize("setup", ["single", "five", "general", "edge_breaks"])
    def test_blocks_of_64_paths_match_scalar_reference(self, monkeypatch, setup,
                                                       include_parties):
        # blocks split the 1,500 paths within every round
        monkeypatch.setattr(oracle, "BLOCK", 64)
        self._check(setup, include_parties)

    @staticmethod
    def _check(setup, include_parties):
        if setup in ("general", "edge_breaks"):
            doc = _GENERAL_THREE_NAME if setup == "general" else _EDGE_BREAKS
            cfg, model, portfolio, _ = market_from_dict(doc)
        else:
            cfg, model, portfolio, _ = load_config(
                SINGLE_NAME if setup == "single" else FIVE_NAME
            )
        h_true = resolve_true_h_c(cfg, model)
        want = _reference_paths(model, portfolio, 1500, 21, include_parties, h_true)
        got = simulate_paths(model, portfolio, 1500, 21,
                             include_parties=include_parties, h_C_true=h_true)
        assert len(got) == len(want)
        assert sum(len(events) for events, _, _ in want) > 50
        for p, (events, party, party_time) in enumerate(want):
            assert _events(got, p) == events
            assert _PARTY[got.party[p]] == party
            assert got.party_time[p] == party_time


class TestSimulatePaths:
    def test_default_probability(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1}, 1)
        pf = _portfolio(1)
        paths = simulate_paths(model, pf, 20_000, seed=3, include_parties=False)
        hits = sum(1 for p in range(len(paths)) if _events(paths, p))
        p_hat = hits / len(paths)
        p_true = 1.0 - math.exp(-0.1)
        se = math.sqrt(p_true * (1.0 - p_true) / len(paths))
        assert abs(p_hat - p_true) <= 3.0 * se
        assert abs(p_hat - 0.09516) <= 3.0 * se + 1e-5

    def test_zero_intensity_no_defaults(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.0}, 1)
        paths = simulate_paths(model, _portfolio(1), 500, seed=4,
                               include_parties=False)
        assert all(not _events(paths, p) for p in range(len(paths)))

    def test_determinism(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.2, "a33": 0.1}, 2)
        pf = _portfolio(2, T=2.0)
        a = simulate_paths(model, pf, 200, seed=5)
        b = simulate_paths(model, pf, 200, seed=5)
        assert len(a) == len(b)
        for p in range(len(a)):
            assert _events(a, p) == _events(b, p)
            assert a.party[p] == b.party[p]
            assert a.party_time[p] == b.party_time[p]

    def test_contagion_raises_empirical_hazard(self):
        # exposure-time estimate of the hazard before and after the first
        # default: a30 versus a30 + a33
        a30, a33, T = 0.1, 0.4, 5.0
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": a30, "a33": a33}, 2)
        pf = _portfolio(2, T=T)
        paths = simulate_paths(model, pf, 6_000, seed=6, include_parties=False)
        events1 = exposure1 = events2 = exposure2 = 0.0
        for p in range(len(paths)):
            events = _events(paths, p)
            if events:
                t1 = events[0][0]
                events1 += 1.0
                exposure1 += 2.0 * t1
                if len(events) > 1:
                    events2 += 1.0
                    exposure2 += events[1][0] - t1
                else:
                    exposure2 += T - t1
            else:
                exposure1 += 2.0 * T
        lam1 = events1 / exposure1
        lam2 = events2 / exposure2
        assert abs(lam1 - a30) <= 3.0 * math.sqrt(events1) / exposure1
        assert abs(lam2 - (a30 + a33)) <= 3.0 * math.sqrt(events2) / exposure2

    def test_party_default_ends_path(self):
        model = contagion_from_dict({"a10": 5.0, "a20": 5.0, "a30": 0.01}, 1)
        paths = simulate_paths(model, _portfolio(1, T=3.0), 300, seed=7)
        with_party = [p for p in range(len(paths)) if _PARTY[paths.party[p]] is not None]
        assert len(with_party) > 250
        for p in with_party:
            assert _PARTY[paths.party[p]] in ("I", "C")
            assert all(t < paths.party_time[p] for t, _ in _events(paths, p))


    def test_names_past_the_64th_default_once(self):
        # a default must take its name out of the race however many names
        # the portfolio holds
        n = 66
        model = contagion_from_dict({"a10": 0.01, "a20": 0.01, "a30": 0.02}, n)
        paths = simulate_paths(model, _portfolio(n), 300, seed=8, include_parties=False)
        assert np.any(paths.event_entity > 64)
        for p in range(len(paths)):
            names = [i for _, i in _events(paths, p)]
            assert len(names) == len(set(names))

    def test_names_past_the_255th_take_two_bytes(self):
        # one class of 300 names: the entity column widens past one byte and
        # a default still takes its name out of the race
        n = 300
        model = contagion_from_dict({"a10": 0.01, "a20": 0.01, "a30": 0.01}, n)
        paths = simulate_paths(model, _portfolio(n), 300, seed=9, include_parties=False)
        assert paths.event_entity.dtype == np.uint16
        assert np.any(paths.event_entity > 255)
        for p in range(len(paths)):
            names = [i for _, i in _events(paths, p)]
            assert len(names) == len(set(names))

    @pytest.mark.parametrize("config", [SINGLE_NAME, FIVE_NAME], ids=["single", "five"])
    def test_shipped_configs_keep_integers_in_one_byte(self, config):
        cfg, model, portfolio, _ = load_config(config)
        paths = simulate_paths(model, portfolio, 100, seed=1,
                               h_C_true=resolve_true_h_c(cfg, model))
        integers = [column for column in vars(paths).values() if column.dtype.kind in "iu"]
        assert len(integers) == 2
        assert all(column.itemsize == 1 for column in integers)


class TestMcCleanValue:
    def test_protection_leg_value(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1}, 1)
        pf = _portfolio(1, S=0.0, L=0.5)
        est, se = mc_clean_value(_cfg(0.0), model, pf, 20_000, seed=10)
        true = 0.5 * (1.0 - math.exp(-0.1))
        # the discounted protection flow is constant at r_D = 0, so the
        # stratified estimator is exact up to rounding
        assert abs(est - true) <= 3.0 * se + 1e-12

    def test_premium_leg_value(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1}, 1)
        pf = _portfolio(1, S=0.02, L=0.0)
        est, se = mc_clean_value(_cfg(0.0), model, pf, 20_000, seed=11)
        assert abs(est - (-0.0190325)) <= 3.0 * se + 1e-7

    def test_zero_portfolio(self):
        pf = Portfolio(contracts=(), maturity=1.0,
                       loss_investor=0.5, loss_counterparty=0.5)
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1}, 0)
        assert mc_clean_value(_cfg(0.01), model, pf, 100, seed=1) == (0.0, 0.0)

    def test_deterministic_under_seed(self):
        model = contagion_from_dict({"a10": 0.1, "a20": 0.1, "a30": 0.1}, 1)
        pf = _portfolio(1)
        assert mc_clean_value(_cfg(0.01), model, pf, 5_000, seed=12) == \
               mc_clean_value(_cfg(0.01), model, pf, 5_000, seed=12)

    def test_multi_name_estimator(self, five_name_result):
        res = five_name_result
        est, se = mc_clean_value(res.cfg, res.model, res.portfolio,
                                 20_000, seed=13)
        assert abs(est - res.clean[0, 0]) <= 3.0 * se

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r_D", [0.0, 0.001])
    def test_multi_name_matches_per_path_reference(self, r_D):
        # tables with breaks and a -1 direction, priced one path and one
        # contract at a time; survivors' inf default times must stay quiet
        doc = copy.deepcopy(_GENERAL_THREE_NAME)
        doc["rates"] = dict.fromkeys(doc["rates"], r_D)
        cfg, model, portfolio, _ = market_from_dict(doc)
        T, n_paths, seed = portfolio.maturity, 4_000, 31
        taus = simulate_paths(model, portfolio, n_paths, seed,
                              include_parties=False).default_times()
        flows = []
        for row in taus.tolist():
            total = 0.0
            for con, tau in zip(portfolio.contracts, row):
                stop = min(tau, T)
                annuity = stop if r_D == 0.0 else (1.0 - math.exp(-r_D * stop)) / r_D
                loss = con.loss * math.exp(-r_D * tau) if tau <= T else 0.0
                total += con.direction * (-con.spread * annuity + loss)
            flows.append(total)
        assert 0 < np.isfinite(taus).sum() < taus.size  # some names default, some survive
        mean = math.fsum(flows) / n_paths
        se = math.sqrt(math.fsum((f - mean) ** 2 for f in flows) / (n_paths - 1) / n_paths)
        est, got_se = mc_clean_value(cfg, model, portfolio, n_paths, seed)
        assert est == pytest.approx(mean, rel=1e-12)
        assert got_se == pytest.approx(se, rel=1e-12)

    def test_stratified_beats_plain_sampling(self, single_name_result):
        res = single_name_result
        est, se = mc_clean_value(res.cfg, res.model, res.portfolio,
                                 10_000, seed=14)
        assert abs(est - res.clean[0, 0]) <= 3.0 * se
        assert se < 5e-4 * max(1.0, abs(res.clean[0, 0]))


class TestMcXvaCloseout:
    def test_linear_driver_detection(self, single_name_result, five_name_result):
        assert is_linear_driver(single_name_result.cfg,
                                single_name_result.portfolio)
        assert not is_linear_driver(five_name_result.cfg,
                                    five_name_result.portfolio)

    def test_matches_ode(self, single_name_result):
        res = single_name_result
        est, se = mc_xva_closeout(res, 20_000, seed=15)
        ode = res.xva["actual"].surface[0, 0]
        assert abs(est - ode) <= 3.0 * se


class TestPathwiseWealth:
    # the check returns its verify entry as it stands
    def test_upper_dominates(self, single_name_result):
        rep = pathwise_wealth_check(single_name_result, "upper", 2_000, seed=16)
        assert list(rep) == ["paths", "violations", "worst_margin", "mean_surplus", "passed"]
        assert rep["paths"] == 2_000 and rep["passed"] is True
        assert rep["violations"] == 0
        assert rep["worst_margin"] >= -1e-8
        assert rep["mean_surplus"] >= 0.0

    def test_lower_subreplicates(self, single_name_result):
        rep = pathwise_wealth_check(single_name_result, "lower", 2_000, seed=17)
        assert list(rep) == ["paths", "violations", "worst_margin", "mean_deficit", "passed"]
        assert rep["paths"] == 2_000 and rep["passed"] is True
        assert rep["violations"] == 0
        assert rep["worst_margin"] >= -1e-8

    def test_bad_variant(self, single_name_result):
        with pytest.raises(ValueError):
            pathwise_wealth_check(single_name_result, "actual", 10, seed=0)


class TestDriftIdentity:
    # the pass's step gives each variant's driver: the block less its
    # pocket, or the actual block alone
    def test_single_name(self, single_name_result):
        for which in VARIANTS:
            assert drift_identity_error(single_name_result, which) < 1e-15

    def test_five_name_homogeneous(self, five_name_result):
        for which in VARIANTS:
            assert drift_identity_error(five_name_result, which) < 1e-15

    def test_two_class(self, two_class_result):
        for which in VARIANTS:
            assert drift_identity_error(two_class_result, which) < 1e-15

    @pytest.mark.parametrize("which", ["upper", "lower"])
    def test_result_of_one_variant(self, single_name_setup, which):
        cfg, model, portfolio, model_P = single_name_setup
        result = run_engine(cfg, model, portfolio, model_P, variants=(which,), grid_points=200)
        assert tuple(result.xva) == (which,)
        assert drift_identity_error(result, which) < 1e-15


class TestVerifyReport:
    def test_full_report_passes(self, single_name_result):
        report = verify(single_name_result, n_paths=4_000, seed=20)
        assert report["passed"] is True
        checks = report["checks"]
        assert checks["clean_value"]["within_3se"]
        assert checks["xva_closeout"]["within_3se"]
        assert checks["dominance"]["violations"] == 0
        assert checks["subreplication"]["violations"] == 0
        assert checks["drift_identity"]["max_error"] < 1e-9

    def test_clean_value_at_tiny_rates(self):
        # r_D * T is far below the float epsilon, where 1 - exp(-r_D * T)
        # cancels to 0 and would drop the premium leg from every path
        doc = json.loads(SINGLE_NAME.read_text(encoding="utf-8"))
        doc["rates"] = dict.fromkeys(doc["rates"], 1e-17)
        result = run_engine(*market_from_dict(doc), variants=VARIANTS, grid_points=200)
        check = verify(result, n_paths=20_000, seed=0)["checks"]["clean_value"]
        assert check["within_3se"], check

    def test_grouped_lattice_report_passes(self):
        # two classes of two names: a 3 x 3 lattice in place of 2^4 states
        doc = copy.deepcopy(_GENERAL_THREE_NAME)
        doc["contagion"] = {"a10": 0.2, "a20": 0.2, "a30": 0.2, "a33": 0.1}
        doc["counterparty_band"] = {"mu_lower": 0.1501, "mu_upper": 0.6501,
                                    "mu_true": 0.2001}
        a, b = doc["portfolio"]["contracts"][:2]
        doc["portfolio"]["contracts"] = [a, b, a, b]
        result = run_engine(*market_from_dict(doc), variants=("actual", "upper", "lower"),
                            grid_points=400)
        assert result.space.classes == ((1, 3), (2, 4)) and result.space.size == 9
        report = verify(result, n_paths=4_000, seed=20)
        assert report["passed"] is True
        assert report["checks"]["drift_identity"]["max_error"] < 1e-9

    @pytest.mark.parametrize("which", ["upper", "lower"])
    def test_missing_pocket_is_refused(self, single_name_setup, which):
        # mu_C_true is set, so the wealth check must run; a result without
        # its pocket is an error, not a report with fewer checks
        result = run_engine(*single_name_setup, variants=("actual", "upper", "lower"),
                            grid_points=50)
        result.xva[which] = result.xva[which]._replace(pocket=None)
        with pytest.raises(ValueError, match="pocket surface missing"):
            verify(result, n_paths=10, seed=0)


class TestBlocks:
    """The estimators work through their paths in blocks of ``oracle.BLOCK``."""

    @pytest.fixture(scope="class")
    def general_result(self):
        return run_engine(*market_from_dict(_GENERAL_THREE_NAME), variants=VARIANTS,
                          grid_points=400, allow_assumption_violation=True)

    @pytest.mark.parametrize("setup", ["single_name_result", "five_name_result",
                                       "general_result"])
    def test_report_equal_for_every_block_size(self, request, monkeypatch, setup):
        result, n_paths = request.getfixturevalue(setup), 3_001
        reports = []
        for block in (7, oracle.BLOCK, n_paths):
            monkeypatch.setattr(oracle, "BLOCK", block)
            reports.append(json.dumps(verify(result, n_paths=n_paths, seed=9)))
        assert reports[0] == reports[1] == reports[2]  # repr tells every float apart

    # peak bytes per path that verify may trace on each shipped config at
    # 200,000 paths: the paths and their values, not the blocks
    @pytest.mark.parametrize("setup, bound", [("single_name_result", 42),
                                              ("five_name_result", 85)])
    def test_verify_memory_per_path(self, request, setup, bound):
        result, n_paths = request.getfixturevalue(setup), 200_000
        verify(result, n_paths=1_000, seed=0)  # any first-call allocation
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify(result, n_paths=n_paths, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / n_paths <= bound


@st.composite
def _read_case(draw):
    """Three four-state surfaces on a grid of ``build_grid``, with keys and times.

    The grid has 1 to 3,000 segments, drawn breakpoints, two breakpoints
    closer than one average step and one within 1e-9 of an anchor.  The
    values reach 1e300 in magnitude and hold signed zeros.  The times are
    uniform draws, every node and the floats on either side of it, 0, T and
    times outside [0, T].
    """
    T = draw(st.floats(0.01, 50.0))
    min_points = draw(st.integers(1, 3000))
    breaks = draw(st.lists(st.floats(-0.5 * T, 1.5 * T), max_size=4))
    first = draw(st.floats(0.0, T))
    breaks += [first, first + draw(st.floats(0.0, T / min_points, exclude_max=True))]
    near = draw(st.sampled_from([0.0, T, *breaks]))
    breaks.append(near + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-15, 1e-9)))
    grid = build_grid(T, breaks, min_points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    surfaces = []
    for _ in range(3):
        values = rng.standard_normal((4, len(grid)))
        values[1:] *= 10.0 ** rng.integers(-300, 300, size=(3, len(grid)))
        values = np.clip(values, -1e300, 1e300)
        edge = rng.random(values.shape) < 0.1
        values[edge] = rng.choice([0.0, -0.0, 1e300, -1e300], size=np.count_nonzero(edge))
        surfaces.append(values)
    times = np.concatenate([
        rng.uniform(0.0, T, 2000), grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        [0.0, T, -1e-300, -1.0, 2.0 * T, -1e300, 1e300],
    ])
    return grid, surfaces, rng.integers(0, 4, len(times)), times


def _bits(values):
    return values.view(np.uint64).tolist()


class TestSurfaceReads:
    """``oracle._at`` reads the surfaces as np.interp does, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(case=_read_case())
    def test_read_equals_np_interp(self, case):
        grid, surfaces, keys, times = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, as from np.interp
            got = oracle._at(grid, surfaces, keys, times)
            alone = [oracle._at(grid, [surface], keys, times)[0] for surface in surfaces]
        want = interp_at(grid, surfaces, keys, times)
        assert len(got) == len(want) == 3
        for values, one, reference in zip(got, alone, want):
            assert _bits(values) == _bits(reference)
            assert _bits(one) == _bits(reference)

    @pytest.fixture(scope="class", params=["single", "five", "general", "edge_breaks"])
    def result(self, request):
        if request.param in ("single", "five"):
            return request.getfixturevalue(f"{request.param}_name_result")
        doc = _GENERAL_THREE_NAME if request.param == "general" else _EDGE_BREAKS
        return run_engine(*market_from_dict(doc), variants=VARIANTS,
                          allow_assumption_violation=True)

    @staticmethod
    def _estimates(result, seed):
        return (mc_xva_closeout(result, 3_001, seed),
                [pathwise_wealth_check(result, which, 3_001, seed) for which in ("upper", "lower")])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimators_equal_np_interp_reads(self, monkeypatch, result, seed):
        got = self._estimates(result, seed)
        monkeypatch.setattr(oracle, "_at", interp_at)
        assert repr(got) == repr(self._estimates(result, seed))  # repr tells every float apart

    def test_estimators_warn_nothing(self, result):
        # outside verify's np.errstate; the wealth check reads every path
        # without a party default at T, and here _at reads every node
        grid = result.grid
        keys = np.arange(result.space.size).repeat(len(grid))
        times = np.tile(grid, result.space.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._estimates(result, 0)
            clean, margin = oracle._at(grid, (result.clean, result.margins.m), keys, times)
        assert _bits(clean) == _bits(result.clean.ravel())
        assert _bits(margin) == _bits(result.margins.m.ravel())


def _doubled(doc):
    """``doc`` with every contract's spread and loss doubled."""
    doc = copy.deepcopy(doc)
    # new dicts: a drawn class lists one contract dict once per name
    doc["portfolio"]["contracts"] = [dict(c, spread=2.0 * c["spread"], loss=2.0 * c["loss"])
                                     for c in doc["portfolio"]["contracts"]]
    return doc


def _floats(node):
    """Every float of a report, in order."""
    if isinstance(node, dict):
        return [x for value in node.values() for x in _floats(value)]
    return [node] if isinstance(node, float) else []


def _no_tiny_number(node):
    """True when every nonzero float of a drawn case is at least 1e-50 in magnitude."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        return all(map(_no_tiny_number, node))
    return not isinstance(node, float) or node == 0.0 or abs(node) >= 1e-50


def _surfaces(res):
    """Every clean, margin, XVA and pocket surface of ``res``."""
    out = [res.clean, res.margins.vm, res.margins.im, res.margins.m]
    for xres in res.xva.values():
        out += [xres.surface] + [xres.pocket] * (xres.pocket is not None)
    return out


def _regimes(res):
    return [xres.regime for xres in res.xva.values() if xres.regime is not None]


class TestNotionalDoubling:
    """Doubling every spread and loss doubles every value, bit for bit.

    The driver is positively homogeneous and doubling is exact in binary
    floating point away from overflow and subnormals, which no value here
    comes near.  Numbers are compared, not verdicts: the checks' absolute
    slacks are not homogeneous.
    """

    @pytest.mark.parametrize("config, beta, full", [
        (SINGLE_NAME, None, False),
        (SINGLE_NAME, 0.5, False),  # the initial margin is nonzero
        (FIVE_NAME, None, False),
        (FIVE_NAME, None, True),
    ], ids=["single", "single-beta", "five", "five-full"])
    def test_every_surface_and_report_float_doubles(self, config, beta, full):
        doc = json.loads(Path(config).read_text(encoding="utf-8"))
        if beta is not None:
            doc["portfolio"]["collateral"]["beta"] = beta
        once, twice = (run_engine(*market_from_dict(d), variants=VARIANTS, force_full=full,
                                  allow_assumption_violation=True)
                       for d in (doc, _doubled(doc)))
        if beta is not None:
            assert np.count_nonzero(once.margins.im) > 0
        assert len(_surfaces(once)) == 9 and len(_regimes(once)) == 2
        self._check(once, twice, 20_000)

    # draws as the loop-pass tests make them: a single-name config whose beta
    # is 0, 0.5 or 1 (any direction), or a multi-name one of two or three
    # classes with beta = 0, any variant subset and a grid of 3 to 50 points.
    # Spreads of at least 0.01, losses of at least 0.2 and intensities of at
    # least 0.01 keep every value normal, and so does leaving out a rate or
    # an alpha below 1e-50 other than 0: alpha = 5e-324 makes the variation
    # margin subnormal, where doubling it is not exact.
    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_single_name_case().filter(_no_tiny_number))
    def test_drawn_single_name_configs_double(self, case):
        self._check_drawn(case)

    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_multi_name_case().filter(_no_tiny_number))
    def test_drawn_multi_name_configs_double(self, case):
        self._check_drawn(case)

    def _check_drawn(self, case):
        doc, variants, points = case
        once, twice = (run_engine(*market_from_dict(d), variants=variants, grid_points=points,
                                  allow_assumption_violation=True)
                       for d in (doc, _doubled(doc)))
        self._check(once, twice, 500)

    @staticmethod
    def _check(once, twice, n_paths):
        a, b = _surfaces(once), _surfaces(twice)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (2.0 * x).tobytes() == y.tobytes()
        for x, y in zip(_regimes(once), _regimes(twice), strict=True):
            assert np.array_equal(x, y)
        reports = [verify(res, n_paths=n_paths, seed=4) for res in (once, twice)]
        a, b = (_floats(report) for report in reports)
        assert len(a) == len(b) > 0
        assert [2.0 * x for x in a] == b


def _in_double_units(doc):
    """``doc`` in a time unit twice as long: every rate, band rate, intensity
    and spread halved; the maturity, every break and delta doubled."""
    doc = copy.deepcopy(doc)

    def half(row):
        return [0.5 * x for x in row] if isinstance(row, list) else 0.5 * row

    def table(spec):
        if not isinstance(spec, dict):
            return half(spec)
        return {"breaks": [2.0 * b for b in spec.get("breaks", [])],
                "values": [half(row) for row in spec["values"]]}

    doc["rates"] = {key: 0.5 * rate for key, rate in doc["rates"].items()}
    band = doc["counterparty_band"]
    for key in ("mu_lower", "mu_upper", "mu_true"):
        if isinstance(band.get(key), float):
            band[key] *= 0.5
    contagion = doc["contagion"]
    for key, spec in contagion.items():
        contagion[key] = [table(t) for t in spec] if isinstance(spec, list) else table(spec)
    portfolio = doc["portfolio"]
    portfolio["maturity"] *= 2.0
    portfolio["collateral"]["delta"] *= 2.0
    portfolio["contracts"] = [dict(c, spread=0.5 * c["spread"]) for c in portfolio["contracts"]]
    return doc


class TestTimeUnit:
    """A time unit twice as long leaves every value as it was, bit for bit.

    Every rate term is a rate times a span, and halving one while doubling
    the other is exact in binary floating point, as is doubling each node of
    the grid, which keeps its breaks.
    """

    @pytest.mark.parametrize("config, beta, full", [
        (SINGLE_NAME, None, False),
        (SINGLE_NAME, 0.5, False),  # the initial margin is nonzero
        (FIVE_NAME, None, False),
        (FIVE_NAME, None, True),
    ], ids=["single", "single-beta", "five", "five-full"])
    def test_every_surface_equal_and_grid_doubles(self, config, beta, full):
        doc = json.loads(Path(config).read_text(encoding="utf-8"))
        if beta is not None:
            doc["portfolio"]["collateral"]["beta"] = beta
        once, slow = (run_engine(*market_from_dict(d), variants=VARIANTS, force_full=full,
                                 allow_assumption_violation=True)
                      for d in (doc, _in_double_units(doc)))
        if beta is not None:
            assert np.count_nonzero(once.margins.im) > 0
        assert (2.0 * once.grid).tobytes() == slow.grid.tobytes()
        a, b = _surfaces(once), _surfaces(slow)
        assert len(a) == len(b) == 9
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()
        for x, y in zip(_regimes(once), _regimes(slow), strict=True):
            assert np.array_equal(x, y)


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    # registered first: its dataclasses look their module up in sys.modules
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_audit_seeds_pass(single_name_result):
    # the benchmark's audit workload runs verify on the single-name config with
    # one of these seeds and counts a run as correct only when the oracle passes
    workloads = _benchmark_workloads()
    n_paths = workloads.FULL.audit_paths
    failed = [seed for seed in range(workloads.SEED_CLASSES)
              if not verify(single_name_result, n_paths=n_paths, seed=seed)["passed"]]
    assert failed == []
