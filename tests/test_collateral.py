"""Closeout maps, variation margin, and VaR-based initial margin."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxva.collateral import (
    MarginSchedule,
    closeout_excess,
    initial_margin_var,
    margin_schedule,
)
import rxva.collateral as collateral
import rxva.engine as engine
from rxva.engine import run_engine
from rxva.market import (
    CollateralSpec,
    Contract,
    MarketConfig,
    PiecewiseTable,
    Portfolio,
    contagion_from_dict,
)

from references import initial_margin_closed_form


# ---------------------------------------------------------------------------
# Closeout values
# ---------------------------------------------------------------------------

class TestCloseout:
    def test_investor_default_positive_exposure(self):
        theta_I, theta_C = closeout_excess(1.0, 0.0, 0.5, 0.5)
        assert theta_I == pytest.approx(-0.5)
        assert 1.0 + theta_I == pytest.approx(0.5)
        assert theta_C == 0.0

    def test_counterparty_default_negative_exposure(self):
        theta_I, theta_C = closeout_excess(-2.0, 0.0, 0.5, 0.5)
        assert theta_C == pytest.approx(1.0)
        assert -2.0 + theta_C == pytest.approx(-1.0)
        assert theta_I == 0.0

    def test_fully_collateralized_no_loss(self):
        theta_I, theta_C = closeout_excess(0.7, 0.7, 0.5, 0.5)
        assert theta_I == 0.0 and theta_C == 0.0
        assert 0.7 + theta_I == 0.7 + theta_C == pytest.approx(0.7)

    @given(
        v=st.floats(min_value=-5.0, max_value=5.0),
        m=st.floats(min_value=-5.0, max_value=5.0),
        L_I=st.floats(min_value=0.0, max_value=1.0),
        L_C=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=None, max_examples=100)
    def test_netted_identity(self, v, m, L_I, L_C):
        # the netted values are the losses on the uncollateralised part, one
        # side at a time, elementwise over arrays as over scalars
        theta_I, theta_C = closeout_excess(v, m, L_I, L_C)
        assert theta_I == -L_I * max(v - m, 0.0)
        assert theta_C == L_C * max(m - v, 0.0)
        assert theta_I <= 0.0 <= theta_C and theta_I * theta_C == 0.0
        vec_I, vec_C = closeout_excess(np.array([v, m]), np.array([m, v]), L_I, L_C)
        assert vec_I[0] == theta_I and vec_C[0] == theta_C


# ---------------------------------------------------------------------------
# Variation margin
# ---------------------------------------------------------------------------

class TestVariationMargin:
    """``MarginSchedule.settle`` sets vm = alpha * v_hat and m = vm + im."""

    @staticmethod
    def _settled(v_hat, alpha):
        margins = MarginSchedule(alpha=alpha, im=np.zeros_like(v_hat))
        margins.settle(v_hat)
        return margins

    def test_scaling(self):
        # a short (gamma = -1) position: the direction sits in the clean value
        v_hat = np.array([[-0.00483043, 0.0], [0.0, 0.0]])
        vm = self._settled(v_hat, alpha=0.8).vm
        assert vm[0][0] == pytest.approx(-0.00386434, abs=1e-8)
        assert np.all(self._settled(v_hat, alpha=0.0).vm == 0.0)
        full = self._settled(v_hat, alpha=1.0)
        assert np.array_equal(full.vm, v_hat) and np.array_equal(full.m, v_hat)

    def test_settle_adds_a_nonzero_initial_margin_bit_for_bit(self):
        res = _single_name_engine(alpha=0.5, beta=1.0)
        margins = margin_schedule(res.model, res.portfolio, res.grid, res.space)
        assert np.count_nonzero(margins.im) > 0
        margins.settle(res.clean)
        assert margins.vm.tobytes() == (0.5 * res.clean).tobytes()
        assert margins.m.tobytes() == (margins.vm + margins.im).tobytes()
        assert margins.m.tobytes() == res.margins.m.tobytes()


# ---------------------------------------------------------------------------
# Initial margin
# ---------------------------------------------------------------------------

class TestInitialMargin:
    def test_closed_form_value(self):
        im = initial_margin_closed_form(
            h_P=0.3, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0, beta=1.0
        )
        assert im == pytest.approx(0.4993300, abs=1e-7)

    def test_closed_form_zero_branch(self):
        # q <= e^{-h delta}: the quantile scenario has no default
        assert initial_margin_closed_form(
            h_P=0.1, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0, beta=1.0
        ) == 0.0

    def test_var_matches_closed_form(self):
        im = initial_margin_var(
            h_P=0.3, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0,
            beta=1.0, gamma=-1, t=0.0, T=5.0,
        )
        assert im == pytest.approx(0.5 + 0.02 * np.log(0.99) / 0.3, abs=1e-8)

    def test_var_zero_when_survival_likely(self):
        im = initial_margin_var(
            h_P=0.1, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0,
            beta=1.0, gamma=-1, t=0.0, T=5.0,
        )
        assert im == 0.0

    def test_var_at_maturity_zero(self):
        assert initial_margin_var(
            h_P=0.3, S=0.02, L=0.5, q=0.99, delta=0.05,
            beta=1.0, gamma=-1, t=5.0, T=5.0,
        ) == 0.0

    def test_random_draws_match_closed_form(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 30:
            h = rng.uniform(0.05, 1.0)
            delta = rng.uniform(0.01, 0.2)
            floor = np.exp(-h * delta)
            q = floor + (1.0 - floor) * rng.uniform(0.05, 0.95)
            S = rng.uniform(0.0, 0.1)
            L = rng.uniform(0.1, 1.0)
            beta = rng.uniform(0.1, 2.0)
            if L + S * np.log(q) / h <= 0.0:
                continue
            got = initial_margin_var(
                h_P=h, S=S, L=L, q=q, delta=delta,
                beta=beta, gamma=-1, t=0.0, T=10.0,
            )
            want = initial_margin_closed_form(h, S, L, q, delta, beta)
            assert got == pytest.approx(want, abs=1e-8)
            checked += 1

    def test_long_protection_zero_when_loss_dominates(self):
        # gamma = +1: the adverse scenario is survival; with L >= S T the
        # clean value never drops enough over the window
        im = initial_margin_var(
            h_P=0.3, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0,
            beta=1.0, gamma=1, t=0.0, T=1.0,
        )
        assert im == 0.0

    def test_monotonicity(self):
        base = dict(S=0.02, L=0.5, delta=10.0 / 252.0, gamma=-1, t=0.0, T=5.0)
        # the closed form beta (L + S ln(q) / h) grows with the confidence
        # level q once the margin is active, and is 0 below the activation
        # threshold q = e^{-h delta}
        qs = np.linspace(0.95, 0.995, 8)
        ims = [initial_margin_var(h_P=0.5, q=q, beta=1.0, **base) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(ims, ims[1:]))
        betas = np.linspace(0.0, 2.0, 8)
        ims = [initial_margin_var(h_P=0.5, q=0.97, beta=b, **base) for b in betas]
        assert all(b >= a - 1e-12 for a, b in zip(ims, ims[1:]))
        Ls = np.linspace(0.2, 1.0, 8)
        ims = [
            initial_margin_var(h_P=0.5, S=0.02, L=L, q=0.97, delta=10.0 / 252.0,
                               beta=1.0, gamma=-1, t=0.0, T=5.0)
            for L in Ls
        ]
        assert all(b >= a - 1e-12 for a, b in zip(ims, ims[1:]))

    def test_piecewise_intensity_table(self):
        table = PiecewiseTable(breaks=(1.0,), values=((0.2,), (0.6,)))
        # deep inside the second piece the margin matches the constant case
        got = initial_margin_var(
            h_P=table, S=0.02, L=0.5, q=0.99, delta=10.0 / 252.0,
            beta=1.0, gamma=-1, t=2.0, T=10.0,
        )
        want = initial_margin_closed_form(0.6, 0.02, 0.5, 0.99, 10.0 / 252.0, 1.0)
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("t", [0.99, 1.0 - 5.0 / 252.0, 1.0 - 1e-6])
    def test_break_inside_window_matches_bisection(self, t):
        # the window [t, t + delta] straddles the break at 1.0; the margin
        # solves exp(-Lambda(t, t + (L - K) / S)) = q, bisected here on K
        breaks, values = (1.0,), (0.2, 0.6)
        S, L, q, delta, beta = 0.3, 0.5, 0.99, 10.0 / 252.0, 1.5

        def cum_hazard(a, b):
            mid = min(max(breaks[0], a), b)
            return values[0] * (mid - a) + values[1] * (b - mid)

        def f(K):
            return np.exp(-cum_hazard(t, t + min((L - K) / S, delta))) - q

        lo, hi = 0.0, L
        assert f(lo) < 0.0 < f(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
        table = PiecewiseTable(breaks=breaks, values=tuple((v,) for v in values))
        got = initial_margin_var(h_P=table, S=S, L=L, q=q, delta=delta,
                                 beta=beta, gamma=-1, t=t, T=5.0)
        assert got == pytest.approx(beta * 0.5 * (lo + hi), abs=1e-10)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            initial_margin_var(0.3, 0.02, 0.5, 0.99, 0.05, 1.0, 0, 0.0, 1.0)

    def test_random_draws_match_the_quantile_equation(self):
        # derandomized draws: both directions, S < 0, S = 0 and S > 0, tables
        # of 0-2 breaks with zero pieces, windows that straddle a break, t at
        # 0, T - delta, T - 1e-12, T and past T; one call per draw over its
        # times, each margin against _reference_margin
        rng = np.random.default_rng(20251019)
        seen = dict.fromkeys(("plus", "minus", "S=0", "S<0", "straddle", "past T"), 0)
        for i in range(300):
            T = rng.uniform(0.2, 5.0)
            breaks = tuple(np.sort(rng.uniform(0.0, 1.2 * T, i % 3)).tolist())
            values = (rng.uniform(0.01, 3.0, i % 3 + 1) * (rng.random(i % 3 + 1) < 0.85)).tolist()
            table = PiecewiseTable(breaks=breaks, values=tuple((v,) for v in values))
            S = (-1.0, 0.0, 1.0)[i % 3 if i % 5 else (i // 5) % 3] * rng.uniform(0.0, 0.5)
            L, q = rng.uniform(-0.1, 1.0), 1.0 - 10.0 ** rng.uniform(-4.0, -0.5)
            delta, beta = rng.uniform(0.005, 0.5), rng.uniform(0.1, 2.0)
            ts = [0.0, max(T - delta, 0.0), T - 1e-12, T, T + 0.5, rng.uniform(0.0, T)]
            ts += [b - 0.5 * delta for b in breaks if 0.0 < b - 0.5 * delta < T]
            for gamma in (-1, 1):
                got = initial_margin_var(table, S, L, q, delta, beta, gamma, np.array(ts), T)
                assert got.shape == (len(ts),)
                for t, im in zip(ts, got.tolist()):
                    want, ambiguous = _reference_margin(breaks, values, S, L, q, delta,
                                                        beta, gamma, t, T)
                    if ambiguous and im != want:
                        continue  # within rounding of the cap both answers are legitimate
                    assert im == pytest.approx(want, rel=1e-9, abs=1e-12), (i, gamma, t)
                    if im != 0.0:
                        seen["plus" if gamma == 1 else "minus"] += 1
                        seen["S=0"] += S == 0.0
                        seen["straddle"] += any(t < b < t + delta for b in breaks)
                    seen["S<0"] += S < 0.0
                    seen["past T"] += t >= T
        # each kind of case is drawn, with nonzero margins where it has them;
        # none of these draws falls within rounding of its cap
        assert min(seen.values()) >= 50, seen

    def test_scalar_and_array_times_agree_bit_for_bit(self):
        table = PiecewiseTable(breaks=(0.4, 0.7), values=((0.9,), (0.0,), (2.5,)))
        ts = np.concatenate([np.linspace(0.0, 1.0, 201), [1.0 - 1e-12, 1.5]])
        for gamma, S in ((-1, 0.3), (-1, 0.0), (1, 0.3), (1, -0.1)):
            whole = initial_margin_var(table, S, 0.5, 0.97, 0.08, 1.5, gamma, ts, 1.0)
            each = np.array([initial_margin_var(table, S, 0.5, 0.97, 0.08, 1.5, gamma, t, 1.0)
                             for t in ts.tolist()])
            assert np.array_equal(whole.view(np.uint64), each.view(np.uint64))
            assert np.count_nonzero(whole) > 0 and not whole[ts >= 1.0].any()

    def test_no_warning_when_the_hazard_never_reaches_the_quantile(self):
        # S = 0 and a zero hazard: the crossing time is inf and is never multiplied
        ts = np.linspace(0.0, 1.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h_P in (0.0, PiecewiseTable(breaks=(0.5,), values=((0.0,), (0.01,)))):
                for gamma in (-1, 1):
                    got = initial_margin_var(h_P, 0.0, 0.5, 0.99, 0.05, 1.0, gamma, ts, 1.0)
                    assert got.tolist() == [0.0] * 11


def _reference_margin(breaks, values, S, L, q, delta, beta, gamma, t, T):
    """(margin, whether rounding may flip it), from the quantile equation.

    The cumulated hazard is the sum over the table's pieces of the intensity
    times the overlap with the window.  For gamma = -1 the margin is beta * K
    with K in [0, L] solving exp(-Lambda(t, t + ((L - K) / S) ^ delta_eff)) = q
    by bisection (0 when no K does: with S < 0 the window is empty for every
    such K), and beta * L when S = 0 and a default within delta_eff has
    probability above 1 - q.  For gamma = +1 it is beta * S * delta_eff unless
    a default within min(L / S, delta_eff) (delta_eff when S <= 0) has
    probability at least 1 - q.  The margin jumps where Lambda over the
    window that decides it equals -log q, so within 1e-12 of that either
    answer is a legitimate rounding.
    """
    starts, ends = (-np.inf, *breaks), (*breaks, np.inf)

    def cum_hazard(span):
        span = max(span, 0.0)
        return sum(h * max(0.0, min(t + span, b) - max(t, a))
                   for a, b, h in zip(starts, ends, values))

    if t >= T:
        return 0.0, False
    d, target = min(delta, T - t), -np.log(q)
    if gamma == 1:
        lam = cum_hazard(min(L / S, d) if S > 0.0 else d)
        return (beta * S * d if lam < target else 0.0), abs(lam - target) < 1e-12
    if S == 0.0:
        lam = cum_hazard(d)
        return (beta * max(L, 0.0) if lam > target else 0.0), abs(lam - target) < 1e-12
    lam = cum_hazard(min(L / S, d)) if S > 0.0 and L > 0.0 else 0.0
    if lam <= target:
        return 0.0, abs(lam - target) < 1e-12
    lo, hi = 0.0, L  # the window shrinks, so Lambda falls, as K grows
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cum_hazard(min((L - mid) / S, d)) >= target else (lo, mid)
    return beta * 0.5 * (lo + hi), False


# ---------------------------------------------------------------------------
# Margin schedule
# ---------------------------------------------------------------------------

def _single_name_engine(alpha=0.0, beta=0.0, direction=-1, a30=0.3):
    cfg = MarketConfig(
        r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
        r_m_plus=0.001, r_m_minus=0.001,
        mu_C_lower=0.1501, mu_C_upper=0.2501, mu_C_true=0.2001,
    )
    model = contagion_from_dict({"a10": 0.2, "a20": 0.2, "a30": a30}, 1)
    portfolio = Portfolio(
        contracts=(Contract(spread=0.02, loss=0.5, direction=direction),),
        maturity=1.0, loss_investor=0.5, loss_counterparty=0.5,
        collateral=CollateralSpec(alpha=alpha, beta=beta),
    )
    return run_engine(cfg, model, portfolio, grid_points=400)


class TestMarginSchedule:
    def test_no_collateral_all_zero(self):
        res = _single_name_engine(alpha=0.0, beta=0.0)
        assert np.all(res.margins.m[0] == 0.0)
        assert np.all(res.margins.im[0] == 0.0)

    def test_m_is_vm_plus_im(self):
        res = _single_name_engine(alpha=0.5, beta=1.0)
        for key in res.space.keys:
            total = res.margins.vm[key] + res.margins.im[key]
            assert np.array_equal(res.margins.m[key], total)

    def test_im_nonnegative_and_zero_after_reference_default(self):
        res = _single_name_engine(alpha=0.0, beta=1.0)
        assert np.all(res.margins.im[0] >= 0.0)
        assert np.any(res.margins.im[0] > 0.0)
        assert np.all(res.margins.im[1] == 0.0)

    def test_im_vanishes_inside_final_window(self):
        res = _single_name_engine(alpha=0.0, beta=1.0)
        grid = res.grid
        T = res.portfolio.maturity
        # at t = T the remaining window is empty
        assert res.margins.im[0][-1] == 0.0
        # just before T - delta the margin is still at the closed-form level
        coll = res.portfolio.collateral
        inside = grid < T - coll.delta - 1e-9
        want = initial_margin_closed_form(0.3, 0.02, 0.5, coll.q, coll.delta, 1.0)
        assert res.margins.im[0][inside][0] == pytest.approx(want, abs=1e-8)

    def test_one_margin_call_per_schedule(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return initial_margin_var(*args)

        monkeypatch.setattr(collateral, "initial_margin_var", counted)
        res = _single_name_engine(alpha=0.0, beta=1.0)
        assert len(calls) == 1 and calls[0][7] is res.grid

    def test_multi_name_needs_var_callback(self, monkeypatch):
        cfg = MarketConfig(
            r_D=0.001, r_f_plus=0.001, r_f_minus=0.001,
            r_m_plus=0.001, r_m_minus=0.001,
            mu_C_lower=0.1501, mu_C_upper=0.2501,
        )
        model = contagion_from_dict({"a10": 0.2, "a20": 0.2, "a30": 0.3}, 2)
        con = Contract(spread=0.02, loss=0.5)
        portfolio = Portfolio(
            contracts=(con, con), maturity=1.0,
            loss_investor=0.5, loss_counterparty=0.5,
            collateral=CollateralSpec(beta=1.0),
        )
        # refused before the lattice pass
        monkeypatch.setattr(engine, "solve_clean", None)
        with pytest.raises(ValueError, match="VaR callback"):
            run_engine(cfg, model, portfolio, grid_points=100)
