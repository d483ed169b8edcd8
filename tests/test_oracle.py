"""Monte Carlo oracle: samplers, estimators, and pathwise audits."""

import copy
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rxva import oracle
from rxva.engine import run_engine
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
from rxva.xva import resolve_true_h_c

from conftest import FIVE_NAME, SINGLE_NAME


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
            clocks = [(i, lambda tt, i=i: model.intensity_by_count(i, tt, k))
                      for i in range(1, n + 1)]
            if include_parties:
                clocks.append(("I", lambda tt: model.intensity_by_count("I", tt, k)))
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
    k = int(paths.n_events[p])
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


class TestSamplerExactness:
    """The round-major sampler gives the scalar sampler's paths bit for bit."""

    @pytest.mark.parametrize("include_parties", [False, True])
    @pytest.mark.parametrize("setup", ["single", "five", "general"])
    def test_paths_match_scalar_reference(self, setup, include_parties):
        if setup == "general":
            cfg, model, portfolio, _ = market_from_dict(_GENERAL_THREE_NAME)
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
        assert abs(est - res.clean.at0(0)) <= 3.0 * se

    def test_stratified_beats_plain_sampling(self, single_name_result):
        res = single_name_result
        est, se = mc_clean_value(res.cfg, res.model, res.portfolio,
                                 10_000, seed=14)
        assert abs(est - res.clean.at0(0)) <= 3.0 * se
        assert se < 5e-4 * max(1.0, abs(res.clean.at0(0)))


class TestMcXvaCloseout:
    def test_linear_driver_detection(self, single_name_result, five_name_result):
        assert is_linear_driver(single_name_result.cfg,
                                single_name_result.portfolio)
        assert not is_linear_driver(five_name_result.cfg,
                                    five_name_result.portfolio)

    def test_matches_ode(self, single_name_result):
        res = single_name_result
        est, se = mc_xva_closeout(res, 20_000, seed=15)
        ode = res.xva["actual"].surface.at0(0)
        assert abs(est - ode) <= 3.0 * se


class TestPathwiseWealth:
    def test_upper_dominates(self, single_name_result):
        rep = pathwise_wealth_check(single_name_result, "upper", 2_000, seed=16)
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-8
        assert rep.mean_surplus >= 0.0

    def test_lower_subreplicates(self, single_name_result):
        rep = pathwise_wealth_check(single_name_result, "lower", 2_000, seed=17)
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-8

    def test_bad_variant(self, single_name_result):
        with pytest.raises(ValueError):
            pathwise_wealth_check(single_name_result, "actual", 10, seed=0)


class TestDriftIdentity:
    def test_single_name(self, single_name_result):
        assert drift_identity_error(single_name_result, "upper") < 1e-9
        assert drift_identity_error(single_name_result, "lower") < 1e-9

    def test_five_name_homogeneous(self, five_name_result):
        assert drift_identity_error(five_name_result, "upper") < 1e-9


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
