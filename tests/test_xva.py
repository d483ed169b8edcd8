"""XVA driver, switching rule, the joint lattice pass, and closeout values."""

import copy
import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rxva.xva as xva
from rxva.collateral import closeout_excess
from rxva.engine import run_engine
from rxva.grids import StateSpace, choose_state_space
from rxva.market import MarketConfig, Portfolio, market_from_dict, validate_assumptions
from rxva.xva import (
    REGIME_HI,
    REGIME_LO,
    REGIME_TIE,
    VARIANTS,
    StateCoeffs,
    _layout,
    lattice_coefficients,
    resolve_true_h_c,
    solve_clean,
    solve_xva,
)

from conftest import FIVE_NAME, SINGLE_NAME, TWO_CLASS
from references import lattice_rhs, loop_lattice_rhs, loop_pass, solve_value_direct


def _load_doc(path=SINGLE_NAME):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cfg(r_D=0.0, r_f_plus=0.0, r_f_minus=0.0, r_m_plus=0.0, r_m_minus=0.0,
         lo=0.1, hi=0.2, true=None):
    return MarketConfig(
        r_D=r_D, r_f_plus=r_f_plus, r_f_minus=r_f_minus,
        r_m_plus=r_m_plus, r_m_minus=r_m_minus,
        mu_C_lower=lo, mu_C_upper=hi, mu_C_true=true,
    )


def _losses(L_I=0.5, L_C=0.5):
    return Portfolio(contracts=(), maturity=1.0, loss_investor=L_I, loss_counterparty=L_C)


def _h_true(cfg):
    """The true counterparty intensity a state bundle carries (0 when unset)."""
    table = resolve_true_h_c(cfg, None)
    return 0.0 if table is None else table.at(0.0, 0)


def _state(h_I=0.0, sum_L=0.0, transitions=(), alive=0, h_C=0.0):
    return StateCoeffs(sum_S=0.0, sum_L=sum_L, h_I=h_I, h_C=h_C,
                       alive_count=alive, transitions=transitions)


def _xva_drift(cfg, which, v, m, u, L_I=0.5, L_C=0.5, state=None, u_child=0.0):
    """du/ds of one variant at a state from the solver's own right-hand side.

    The lattice has the given state (default: no intensities, no children)
    and one absorbed child state holding ``u_child``; alpha = 0 and an
    initial margin of ``m`` make the collateral exactly ``m``.
    """
    rhs = lattice_rhs(cfg, _losses(L_I, L_C), 2, 0.0, (which,))
    states = ((state or _state())._replace(h_C=_h_true(cfg)), _state(h_C=_h_true(cfg)))
    return rhs(states)([m, 0.0], [m, 0.0], 0.0, [v, 0.0, u, u_child])[2]


def _selected_rate(cfg, which, v, m, u, L_C=1.0):
    """Counterparty rate mu the driver selects: with every other rate and
    intensity zero, du/ds = (mu - r_D) z_C."""
    z_C = L_C * max(-(v - m), 0.0) - u
    return _xva_drift(cfg, which, v, m, u, L_C=L_C) / z_C + cfg.r_D


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class TestFTilde:
    def test_zero_rates_vanish(self):
        # zero rates and intensities: the funding part leaves nothing
        cfg = _cfg(true=0.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v, m, u, u_child, loss = rng.normal(size=5)
            state = _state(sum_L=loss, transitions=((1, 0.0, loss, 1),), alive=1)
            assert _xva_drift(cfg, "actual", v, m, u, state=state, u_child=u_child) == 0.0

    def test_symmetric_rates_discount_only(self):
        # with r_f = r_m = r_D on both signs the driver collapses to
        # -r_D * xva regardless of the other arguments
        r = 0.037
        cfg = _cfg(r_D=r, r_f_plus=r, r_f_minus=r, r_m_plus=r, r_m_minus=r, true=r)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v, m, u, u_child, loss = rng.normal(size=5)
            state = _state(sum_L=loss, transitions=((1, 0.0, loss, 1),), alive=1)
            got = _xva_drift(cfg, "actual", v, m, u, state=state, u_child=u_child)
            assert got == pytest.approx(-r * u, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        # the right-hand side over 16 unlinked states equals 16 one-state
        # evaluations: lattice states do not mix except through children
        cfg = _cfg(r_D=0.01, r_f_plus=0.05, r_f_minus=0.02,
                   r_m_plus=0.01, r_m_minus=0.03, true=0.15)
        rng = np.random.default_rng(9)
        v, m, u, sum_L = rng.normal(size=(4, 16))
        states = [_state(h_I=h, sum_L=x, h_C=_h_true(cfg))
                  for h, x in zip(rng.uniform(0.0, 0.3, 16), sum_L)]
        rhs = lattice_rhs(cfg, _losses(), 16, 0.0, ("actual", "upper"))
        got = rhs(states)(m.tolist(), m.tolist(), 0.0, [*v, *u, *u, *np.zeros(16)])
        one = lattice_rhs(cfg, _losses(), 1, 0.0, ("actual", "upper"))
        for j in range(16):
            want = one([states[j]])([m[j]], [m[j]], 0.0, [v[j], u[j], u[j], 0.0])
            assert got[j::16] == want


class TestGCheck:
    def test_zero_fixed_point(self):
        cfg = _cfg(r_D=0.01, r_f_plus=0.05, r_f_minus=0.02,
                   r_m_plus=0.01, r_m_minus=0.03, true=0.2)
        state = _state(h_I=0.1, transitions=((1, 0.1, 0.0, 1), (1, 0.2, 0.0, 1)), alive=2)
        assert _xva_drift(cfg, "actual", 0.0, 0.0, 0.0, state=state) == 0.0

    def test_single_name_reduction(self):
        # with one surviving name the lattice driver must equal the
        # single-name driver written out longhand
        cfg_rates = dict(r_D=0.01, r_f_plus=0.005, r_f_minus=0.002,
                         r_m_plus=0.001, r_m_minus=0.003)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u, uc, v, m = rng.normal(scale=0.5, size=4)
            h1, h_I, h_C = rng.uniform(0.05, 0.4, size=3)
            cfg = _cfg(**cfg_rates, true=h_C + cfg_rates["r_D"])
            L_I, L_C = 0.5, 0.4
            gL = 0.6
            state = _state(h_I=h_I, sum_L=gL, transitions=((1, h1, gL, 1),), alive=1)
            got = _xva_drift(cfg, "actual", v, m, u, L_I=L_I, L_C=L_C,
                             state=state, u_child=uc)
            gap = v - m
            z_I = -L_I * max(gap, 0.0) - u
            z_C = L_C * max(-gap, 0.0) - u
            z1 = uc - u
            y = u + z1 + z_I + z_C + gL - m
            f = -(
                cfg.r_f_plus * max(y, 0.0)
                - cfg.r_f_minus * max(-y, 0.0)
                - cfg.r_D * (z1 + z_I + z_C)
                + cfg.r_m_plus * max(m, 0.0)
                - cfg.r_m_minus * max(-m, 0.0)
                - cfg.r_D * gL
            )
            want = h_I * z_I + (cfg.mu_C_true - cfg.r_D) * z_C + h1 * (uc - u) + f
            assert got == pytest.approx(want, abs=1e-13)


class TestSwitchingRate:
    def test_positive_exposure_upper_picks_high(self):
        cfg = _cfg(lo=0.1, hi=0.2)
        assert _selected_rate(cfg, "upper", v=-0.3, m=0.0, u=0.0) == pytest.approx(0.2)

    def test_negative_exposure_upper_picks_low(self):
        cfg = _cfg(lo=0.1, hi=0.2)
        assert _selected_rate(cfg, "upper", v=0.0, m=0.0, u=0.3) == pytest.approx(0.1)

    def test_lower_mode_swaps(self):
        cfg = _cfg(lo=0.1, hi=0.2)
        assert _selected_rate(cfg, "lower", -0.3, 0.0, 0.0) == pytest.approx(0.1)
        assert _selected_rate(cfg, "lower", 0.0, 0.0, 0.3) == pytest.approx(0.2)

    def test_tie_flagged_with_mode_default(self, single_name_result):
        # at z_C = 0 the selected rate multiplies zero: both extremes give
        # one drift, and the solve labels the node TIE (the terminal node,
        # where v = u = 0)
        cfg = _cfg(r_D=0.01, r_f_plus=0.02, lo=0.1, hi=0.2)
        state = _state(h_I=0.1, sum_L=0.3, transitions=((1, 0.2, 0.3, 1),), alive=1)
        drifts = {_xva_drift(cfg, w, 0.0, 0.0, 0.0, state=state, u_child=0.4)
                  for w in ("upper", "lower")}
        assert len(drifts) == 1
        for which in ("upper", "lower"):
            assert single_name_result.xva[which].regime[0][-1] == REGIME_TIE

    def test_loss_rate_scaling_matters(self):
        cfg = _cfg(lo=0.1, hi=0.2)
        # theta_C_tilde = L_C * 1.0 = 0.1 < u = 0.5: low branch
        assert _selected_rate(cfg, "upper", -1.0, 0.0, 0.5, L_C=0.1) == pytest.approx(0.1)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            lattice_rhs(_cfg(), _losses(), 1, 0.0, ("sideways",))


# ---------------------------------------------------------------------------
# Generated kernels against the loop kernel
# ---------------------------------------------------------------------------

_SIGNED = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-2.0, 2.0))


@st.composite
def _rhs_case(draw):
    """Arguments of ``lattice_rhs`` and of one call of its ``rhs``: a lattice
    of one to three classes of one or two names, a variant subset in any
    order, and a bundle whose coefficients are all floats or all np.float64."""
    number = draw(st.sampled_from((float, np.float64)))

    def coeff():
        return number(draw(_SIGNED))

    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    ids = iter(range(1, sum(sizes) + 1))
    space = StateSpace(tuple(tuple(next(ids) for _ in range(n)) for n in sizes))
    lo, hi = sorted((draw(_SIGNED), draw(_SIGNED)))
    true = draw(st.one_of(st.none(), _SIGNED))
    cfg = MarketConfig(r_D=coeff(), r_f_plus=coeff(), r_f_minus=coeff(), r_m_plus=coeff(),
                       r_m_minus=coeff(), mu_C_lower=lo, mu_C_upper=hi, mu_C_true=true)
    allowed = VARIANTS if true is not None else ("upper", "lower")
    variants = tuple(draw(st.lists(st.sampled_from(allowed), unique=True)))
    losses = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 1.0))
    portfolio = _losses(draw(losses), draw(losses))
    states = tuple(
        StateCoeffs(sum_S=coeff(), sum_L=coeff(), h_I=coeff(),
                    h_C=math.nan if true is None else coeff(),
                    alive_count=space.n - space.count(key),
                    transitions=tuple((child, coeff(), coeff(), len(entities))
                                      for child, entities in space.moves(key)))
        for key in space.keys
    )
    size = space.size
    n_cols = size * _layout(cfg, variants)[1]
    im0, im1, y = (draw(st.lists(_SIGNED, min_size=n, max_size=n)) for n in (size, size, n_cols))
    call = (states, im0, im1, draw(st.floats(0.0, 1.0)), y)
    return (cfg, portfolio, size, coeff(), variants), call


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestGeneratedKernel:
    @settings(deadline=None, max_examples=150)
    @given(_rhs_case())
    def test_matches_loop_kernel(self, case):
        args, call = case
        rhs = lattice_rhs(*args)
        want = loop_lattice_rhs(*args)(*call)
        for _ in range(2):  # the second call runs the kept compiled shape
            got = rhs(call[0])(*call[1:])
            assert got == want
            assert _bits(got) == _bits(want)  # zeros keep their sign

    def test_one_compiled_shape_serves_many_bundles(self, monkeypatch):
        # bundles of one shape built and dropped in turn: each runs its own
        # coefficients through the one source compiled for the shape
        compiled = []

        def counting_compile(*args):
            compiled.append(args[1])
            return compile(*args)

        monkeypatch.setattr(xva, "compile", counting_compile, raising=False)
        cfg = _cfg(r_D=0.01, r_f_plus=0.05, r_f_minus=0.02,
                   r_m_plus=0.01, r_m_minus=0.03, true=0.15)
        space = StateSpace(((1, 2), (3,)))
        rng = np.random.default_rng(21)

        def bundle():
            return tuple([
                _state(h_I=rng.uniform(0.0, 0.3), sum_L=rng.normal(), h_C=rng.uniform(0.0, 0.3),
                       alive=space.n - space.count(key),
                       transitions=tuple((child, rng.uniform(0.0, 0.3), rng.normal(), len(ids))
                                         for child, ids in space.moves(key)))
                for key in space.keys
            ])

        args = (cfg, _losses(), space.size, 0.3, VARIANTS)
        rhs, loop = lattice_rhs(*args), loop_lattice_rhs(*args)
        for _ in range(50):
            states = bundle()
            im0, im1 = rng.normal(size=(2, space.size)).tolist()
            y = rng.normal(size=space.size * 6).tolist()
            assert rhs(states)(im0, im1, 0.25, y) == loop(states, im0, im1, 0.25, y)
        assert len(compiled) == 1

    def test_full_ten_name_lattice_matches_loop_pass(self):
        # the largest lattice the engine admits: ten names with distinct
        # spreads, 2^10 states, one kernel of tens of thousands of lines
        doc = _load_doc(FIVE_NAME)
        contract = doc["portfolio"]["contracts"][0]
        doc["portfolio"]["contracts"] = [dict(contract, spread=0.02 + 0.001 * i)
                                         for i in range(10)]
        cfg, model, portfolio, model_P = market_from_dict(doc)
        res = run_engine(cfg, model, portfolio, model_P, variants=VARIANTS, grid_points=4,
                         allow_assumption_violation=True)
        assert res.space.size == 1024
        want = loop_pass(cfg, model, portfolio, res.grid, res.space, res.margins, VARIANTS)
        surfaces = [res.clean] + [res.xva[w].surface for w in VARIANTS]
        surfaces += [res.xva[w].pocket for w in ("upper", "lower")]
        got = np.concatenate(surfaces)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSourceLength:
    """``source_length`` bounds the generated step from counts alone."""

    @pytest.mark.parametrize("n, classes", [(0, 0), (1, 1), (3, 3), (5, 1), (6, 6), (8, 8),
                                            (9, 9), (10, 2), (10, 10)])
    def test_bounds_the_source_within_a_fifth(self, n, classes):
        # names i and j share a class when i = j mod classes
        doc = _load_doc(FIVE_NAME)
        contract = doc["portfolio"]["contracts"][0]
        doc["portfolio"]["contracts"] = [dict(contract, spread=0.02 + 0.001 * (i % classes))
                                         for i in range(n)]
        cfg, model, portfolio, _ = market_from_dict(doc)
        space = choose_state_space(model, portfolio)
        assert len(space.classes) == classes
        shape = tuple(tuple(child for child, _ in space.moves(key)) for key in space.keys)
        for variants in [(), ("actual",), VARIANTS]:
            layout, n_blocks = xva._layout(cfg, variants)
            bound = xva.source_length(cfg, space, variants)
            unfolded = len(xva._kernel_source(shape, layout, n_blocks, frozenset(), (False, False)))
            folded = len(xva._kernel_source(shape, layout, n_blocks,
                                            frozenset(space.keys), (True, True)))
            assert unfolded <= bound <= 1.2 * unfolded
            assert folded <= bound


def _rates(draw, doc):
    """Draws the rates of ``doc``, each funding and margin pair equal or
    not, so the generated step's one product for an equal pair and its
    branch for an unequal one both run."""
    rate = st.floats(0.0, 0.05)
    rates = doc["rates"] = {key: draw(rate) for key in doc["rates"]}
    for plus, minus in (("r_f_plus", "r_f_minus"), ("r_m_plus", "r_m_minus")):
        if draw(st.booleans()):
            rates[minus] = rates[plus]


@st.composite
def _single_name_case(draw):
    """A single-name config, a variant subset in any order (none for the
    clean value alone) and a grid of 3 to 50 points.  The reference
    intensity has a break; mu_true is a number, "model" or unset; beta is 0
    or positive, and then q is drawn so that the initial margin of either
    direction is positive and varies in time."""
    doc = _load_doc()
    _rates(draw, doc)
    lo = draw(st.floats(0.05, 0.2))
    hi = lo + draw(st.floats(0.01, 0.2))
    true = draw(st.one_of(st.none(), st.just("model"), st.floats(lo, hi)))
    doc["counterparty_band"] = {"mu_lower": lo, "mu_upper": hi}
    if true is not None:
        doc["counterparty_band"]["mu_true"] = true
    doc["contagion"]["reference_tables"] = [{
        "breaks": [draw(st.floats(0.5, 2.5))],
        "values": [draw(st.floats(0.2, 0.4)), draw(st.floats(0.2, 0.4))],
    }]
    direction = draw(st.sampled_from((1, -1)))
    doc["portfolio"]["contracts"] = [{"spread": draw(st.floats(0.5, 3.0)),
                                      "loss": draw(st.floats(5.0, 15.0)),
                                      "direction": direction}]
    # direction -1 holds a margin while the default probability over delta
    # exceeds 1 - q, direction +1 while it stays below
    q = st.floats(0.95, 0.99) if direction == -1 else st.floats(0.5, 0.75)
    doc["portfolio"]["collateral"] = {
        "alpha": draw(st.floats(0.0, 1.0)), "beta": draw(st.sampled_from((1.0, 0.5, 0.0))),
        "q": draw(q), "delta": draw(st.floats(0.3, 0.6)),
    }
    allowed = VARIANTS if true is not None else ("upper", "lower")
    variants = draw(st.sampled_from([order for n in range(len(allowed) + 1)
                                     for order in permutations(allowed, n)]))
    return doc, variants, draw(st.integers(3, 50))


@st.composite
def _multi_name_case(draw):
    """A portfolio of two or three classes of one or two names, a variant
    subset in any order and a grid of 3 to 50 points.  Every class has its
    own contract and reference table, the first table breaks inside the
    maturity, so the pass crosses two or more pieces, the investor and
    counterparty tables may break inside it too, and a table row may depend
    on the default count.  mu_true is a number, "model" or unset; beta is 0,
    since a multi-name initial margin is refused."""
    doc = _load_doc(FIVE_NAME)
    _rates(draw, doc)
    lo = draw(st.floats(0.01, 0.1))
    hi = lo + draw(st.floats(0.01, 0.1))
    true = draw(st.one_of(st.none(), st.just("model"), st.floats(lo, hi)))
    doc["counterparty_band"] = {"mu_lower": lo, "mu_upper": hi}
    if true is not None:
        doc["counterparty_band"]["mu_true"] = true
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    intensity = st.floats(0.01, 0.3)
    row = st.one_of(intensity, st.lists(intensity, min_size=sum(sizes) + 1,
                                        max_size=sum(sizes) + 1))

    def table(min_breaks):
        breaks = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=min_breaks, max_size=2,
                                      unique=True)))
        return {"breaks": breaks, "values": [draw(row) for _ in range(len(breaks) + 1)]}

    contracts, tables = [], []
    for g, n in enumerate(sizes):
        contract = {"spread": 0.01 * (g + 1) + draw(st.floats(0.0, 0.005)),
                    "loss": draw(st.floats(0.2, 1.0)),
                    "direction": draw(st.sampled_from((1, -1)))}
        contracts += [contract] * n
        tables += [table(int(g == 0))] * n
    doc["portfolio"]["contracts"] = contracts
    doc["portfolio"]["collateral"]["alpha"] = draw(st.floats(0.0, 1.0))
    doc["contagion"]["reference_tables"] = tables
    doc["contagion"]["investor_table"] = table(0)
    doc["contagion"]["counterparty_table"] = table(0)
    allowed = VARIANTS if true is not None else ("upper", "lower")
    variants = draw(st.sampled_from([order for n in range(len(allowed) + 1)
                                     for order in permutations(allowed, n)]))
    return doc, variants, draw(st.integers(3, 50))


class TestGeneratedStep:
    @settings(deadline=None, max_examples=100)
    @given(_single_name_case())
    def test_engine_pass_matches_loop_pass(self, case):
        # the generated RK4 step against the loop right-hand side on
        # references.rk4_sweep, byte for byte, including the interpolated
        # initial margin of every stage
        doc, variants, points = case
        cfg, model, portfolio, model_P = market_from_dict(doc)
        res = run_engine(cfg, model, portfolio, model_P, variants=variants, grid_points=points,
                         allow_assumption_violation=True)
        if portfolio.collateral.beta > 0.0:
            assert np.ptp(res.margins.im[0]) > 0.0
        want = loop_pass(cfg, model, portfolio, res.grid, res.space, res.margins, variants)
        layout, n_blocks = _layout(cfg, variants)
        surfaces = [res.clean] + [None] * (n_blocks - 1)
        for which, block, pocket in layout:
            surfaces[block] = res.xva[which].surface
            if pocket is not None:
                surfaces[pocket] = res.xva[which].pocket
        got = np.concatenate(surfaces)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(_multi_name_case())
    def test_multi_class_pass_matches_loop_pass(self, case):
        # the same comparison on a lattice of several classes whose pass
        # crosses a break (build_grid puts a node on it)
        doc = case[0]
        _, model, portfolio, _ = market_from_dict(doc)
        space = choose_state_space(model, portfolio)
        assert len(space.classes) == len({c["spread"] for c in doc["portfolio"]["contracts"]})
        assert any(0.0 < b < portfolio.maturity for b in model.breakpoints())
        self.test_engine_pass_matches_loop_pass.hypothesis.inner_test(self, case)

    def test_five_name_step_is_specialised(self, monkeypatch):
        # the pass folds what it knows into its step: the absorbed state (key
        # 5) has no body and beta = 0 leaves no initial margin to read, where
        # lattice_rhs, which takes any y and margin, keeps them; both take
        # the equal margin rates as one product and keep the funding branch
        sources = []

        def recording_compile(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(xva, "compile", recording_compile, raising=False)
        cfg, model, portfolio, model_P = market_from_dict(_load_doc(FIVE_NAME))
        res = run_engine(cfg, model, portfolio, model_P, variants=VARIANTS, grid_points=10,
                         allow_assumption_violation=True)
        assert res.space.size == 6 and cfg.r_m_plus == cfg.r_m_minus != 0.0
        assert cfg.r_f_plus != cfg.r_f_minus
        states = lattice_coefficients(cfg, model, portfolio, res.space, res.grid[:1])[1][0]
        lattice_rhs(cfg, portfolio, 6, res.margins.alpha, VARIANTS)(states)
        step, general = ([line.strip() for line in source.splitlines()] for source in sources)
        for lines, specialised in ((step, True), (general, False)):
            assert any(line.startswith("d4 =") for line in lines)
            assert any(line.startswith("d5 =") for line in lines) != specialised
            assert any("im0[" in line for line in lines) != specialised
            assert "fm = rmp * m" in lines
            assert any("rfp * yf if yf > 0.0 else rfm * yf" in line for line in lines)


# ---------------------------------------------------------------------------
# Lattice solves
# ---------------------------------------------------------------------------

def _plug_ins(doc, grid_points):
    """u_lower, the plug-ins at mu_lower and at mu_upper, and u_upper, each a
    (states x nodes) array, or None when the plug-in configs fail
    validate_assumptions.  A plug-in is the actual variant with mu_true at
    one end of the band: the valuation equation at that extreme."""
    runs = []
    for end, variants in (("mu_lower", ("actual", "upper", "lower")), ("mu_upper", ("actual",))):
        doc = copy.deepcopy(doc)
        doc["counterparty_band"]["mu_true"] = doc["counterparty_band"][end]
        cfg, model, portfolio, model_P = market_from_dict(doc)
        if not validate_assumptions(cfg, model, horizon=portfolio.maturity).passed:
            return None
        runs.append(run_engine(cfg, model, portfolio, model_P, variants=variants,
                               grid_points=grid_points).xva)
    low, high = runs
    return (low["lower"].surface, low["actual"].surface,
            high["actual"].surface, low["upper"].surface)


class TestPlugInOrdering:
    """The robust bounds enclose both plug-in bounds, at every node and state.

    Comparison argument: in a state's driver a child's value enters with the
    coefficient R + c (r_D - r_f) = c (mu_i - r_f), where R = c h_i and
    mu_i = h_i + r_D.  So the system is cooperative (no state's driver
    decreases in a child's value) when r_f <= mu_i for every name, which a
    config that passes validate_assumptions guarantees.  The band pick
    maximises h_C z_C over the two extremes for the upper driver and
    minimises it for the lower one, so the upper driver is at least each
    plug-in driver and the lower at most, with the same terminal value.  The
    comparison theorem for cooperative systems then orders the solutions:
    u_lower <= plug-in(mu_lower), plug-in(mu_upper) <= u_upper.
    """

    @settings(derandomize=True, deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=st.one_of(_single_name_case(), _multi_name_case()))
    def test_robust_bounds_enclose_the_plug_ins(self, case):
        doc, _, points = case
        bounds = _plug_ins(doc, points)
        assume(bounds is not None)
        lower, at_low, at_high, upper = bounds
        for plug_in in (at_low, at_high):
            assert np.all(lower <= plug_in) and np.all(plug_in <= upper)

    def test_robust_bounds_beat_the_plug_ins_on_the_single_name_config(self):
        # the super-replicating value is not a plug-in at either extreme
        lower, at_low, at_high, upper = (u[0, 0] for u in _plug_ins(_load_doc(), 2000))
        assert upper > max(at_low, at_high)
        assert lower < min(at_low, at_high)

    def test_robust_bounds_beat_the_plug_ins_on_the_two_class_config(self):
        # a multi-name config inside the assumptions, where the ordering is a theorem
        lower, at_low, at_high, upper = (u[0, 0] for u in _plug_ins(_load_doc(TWO_CLASS), 2000))
        assert upper - max(at_low, at_high) == pytest.approx(9.33e-3, rel=1e-2)
        assert min(at_low, at_high) - lower == pytest.approx(8.07e-3, rel=1e-2)


class TestSolveXva:
    def test_ordering_everywhere(self, single_name_result):
        res = single_name_result
        for key in res.space.keys:
            lower = res.xva["lower"].surface[key]
            actual = res.xva["actual"].surface[key]
            upper = res.xva["upper"].surface[key]
            assert np.min(actual - lower) >= -1e-10
            assert np.min(upper - actual) >= -1e-10

    def test_terminal_and_absorbed_zero(self, single_name_result):
        res = single_name_result
        for which in ("actual", "upper", "lower"):
            surf = res.xva[which].surface
            assert surf[0][-1] == 0.0
            assert np.all(surf[1] == 0.0)

    def test_band_collapse_single_name(self):
        doc = _load_doc()
        true = doc["counterparty_band"]["mu_true"]
        doc["counterparty_band"]["mu_lower"] = true
        doc["counterparty_band"]["mu_upper"] = true
        cfg, model, portfolio, model_P = market_from_dict(doc)
        res = run_engine(cfg, model, portfolio, model_P,
                         variants=("actual", "upper", "lower"), grid_points=500)
        surfs = [res.xva[w].surface[0] for w in ("actual", "upper", "lower")]
        spread = np.max(np.abs(surfs[0] - surfs[1])) + np.max(np.abs(surfs[0] - surfs[2]))
        assert spread < 1e-10

    def test_band_widening_is_monotone(self, single_name_result):
        narrow = single_name_result
        doc = _load_doc()
        doc["counterparty_band"]["mu_lower"] = 0.1301
        doc["counterparty_band"]["mu_upper"] = 0.2701
        cfg, model, portfolio, model_P = market_from_dict(doc)
        wide = run_engine(cfg, model, portfolio, model_P,
                          variants=("upper", "lower"), grid_points=2000)
        up_n = narrow.xva["upper"].surface[0]
        up_w = wide.xva["upper"].surface[0]
        lo_n = narrow.xva["lower"].surface[0]
        lo_w = wide.xva["lower"].surface[0]
        assert np.min(up_w - up_n) >= -1e-10
        assert np.max(lo_w - lo_n) <= 1e-10

    def test_regime_matches_exposure_sign(self, single_name_result):
        res = single_name_result
        L_C = res.portfolio.loss_counterparty
        lo, hi = res.cfg.mu_C_lower, res.cfg.mu_C_upper
        for which, hi_sign in (("upper", 1.0), ("lower", -1.0)):
            xres = res.xva[which]
            for key in res.space.keys:
                v = res.clean[key]
                m = res.margins.m[key]
                u = xres.surface[key]
                z_C = L_C * np.maximum(-(v - m), 0.0) - u
                regime = xres.regime[key]
                mu_sel = np.where(regime == REGIME_HI, hi, lo)
                # super-solution inequality against both band endpoints,
                # with the sign flipped for the minimizing variant
                live = regime != REGIME_TIE
                for mu_other in (lo, hi):
                    prod = hi_sign * (mu_sel - mu_other) * z_C
                    if np.any(live):
                        assert np.min(prod[live]) >= -1e-15
                ties = regime == REGIME_TIE
                assert np.all(z_C[ties] == 0.0)

    def test_upper_regime_switches_present(self, single_name_result):
        regime = single_name_result.xva["upper"].regime[0]
        assert {REGIME_LO, REGIME_HI} <= set(np.unique(regime))

    def test_actual_requires_true_rate(self, single_name_setup):
        cfg, model, portfolio, _ = single_name_setup
        cfg_no_true = MarketConfig(
            r_D=cfg.r_D, r_f_plus=cfg.r_f_plus, r_f_minus=cfg.r_f_minus,
            r_m_plus=cfg.r_m_plus, r_m_minus=cfg.r_m_minus,
            mu_C_lower=cfg.mu_C_lower, mu_C_upper=cfg.mu_C_upper,
        )
        with pytest.raises(ValueError, match="mu_C_true"):
            run_engine(cfg_no_true, model, portfolio,
                       variants=("actual",), grid_points=100)

    def test_bad_variant_name(self, single_name_result):
        res = single_name_result
        with pytest.raises(ValueError, match="variants"):
            solve_xva(res.cfg, res.model, res.portfolio, res.grid,
                      res.space, res.margins, ("median",))

    def test_pocket_zero_at_origin_grows_backwards(self, single_name_result):
        pocket = single_name_result.xva["upper"].pocket
        assert pocket[0][-1] == 0.0
        # accumulated surplus from t to T is nonnegative for the upper solve
        assert np.min(pocket[0]) >= -1e-12


class TestDirectValueSolve:
    def test_value_minus_clean_is_xva(self, single_name_result):
        res = single_name_result
        u_bar = solve_value_direct(res.cfg, res.model, res.portfolio,
                                   res.grid, res.margins)
        diff = u_bar[0] - res.clean[0] \
            - res.xva["actual"].surface[0]
        assert np.max(np.abs(diff)) < 1e-8

    def test_multi_name_rejected(self, five_name_result):
        res = five_name_result
        with pytest.raises(ValueError, match="single-name"):
            solve_value_direct(res.cfg, res.model, res.portfolio,
                               res.grid, res.margins)


# ---------------------------------------------------------------------------
# rXVA process
# ---------------------------------------------------------------------------

class TestRXvaProcess:
    def test_closeout_values(self, single_name_result):
        # at the first trading-party default the rXVA settles into the
        # collateral-netted closeout value
        res = single_name_result
        j = int(np.searchsorted(res.grid, 1.0))
        v = res.clean[0, j]
        m = res.margins.m[0, j]
        theta_I, theta_C = closeout_excess(v, m, res.portfolio.loss_investor,
                                           res.portfolio.loss_counterparty)
        assert theta_I == pytest.approx(-0.5 * max(v - m, 0.0), abs=1e-15)
        assert theta_C == pytest.approx(0.5 * max(-(v - m), 0.0), abs=1e-15)


# ---------------------------------------------------------------------------
# Joint lattice pass
# ---------------------------------------------------------------------------

class TestJointPass:
    @pytest.mark.parametrize("which", ["upper", "lower"])
    @pytest.mark.parametrize("path", [SINGLE_NAME, FIVE_NAME], ids=["single", "five"])
    def test_one_variant_matches_triple(self, path, which):
        # the columns of the joint pass must not mix: a variant solved alone
        # is bit-identical to the same variant solved with the other two
        cfg, model, portfolio, model_P = market_from_dict(_load_doc(path))
        alone, joint = (
            run_engine(cfg, model, portfolio, model_P, variants=variants,
                       grid_points=400, allow_assumption_violation=True).xva[which]
            for variants in ((which,), ("actual", "upper", "lower"))
        )
        assert np.array_equal(alone.surface, joint.surface)
        assert np.array_equal(alone.pocket, joint.pocket)
        assert np.array_equal(alone.regime, joint.regime)

    def test_one_pass_timed(self, single_name_result):
        assert set(single_name_result.timings) == {"pass"}

    @pytest.mark.parametrize("full, gamma", [(False, 1), (True, 1), (False, -1)],
                             ids=["plain", "full", "gamma-1"])
    @pytest.mark.parametrize("path", [SINGLE_NAME, FIVE_NAME], ids=["single", "five"])
    def test_pass_clean_equals_solve_clean(self, path, full, gamma):
        # the clean rows of the joint pass are the clean-only pass, bit for bit
        cfg, model, portfolio, model_P = market_from_dict(_load_doc(path))
        if gamma == -1:
            portfolio = portfolio.flipped()
        res = run_engine(cfg, model, portfolio, model_P, variants=("actual", "upper", "lower"),
                         grid_points=400, force_full=full, allow_assumption_violation=True)
        alone = solve_clean(cfg, model, portfolio, res.grid, res.space)
        names = range(1, portfolio.n + 1)
        assert res.space.classes == (tuple((i,) for i in names) if full else (tuple(names),))
        assert np.array_equal(res.clean, alone)


# each party's table key and affine pair in a contagion block
_PARTIES = (("investor_table", "a10", "a13"), ("counterparty_table", "a20", "a23"),
            ("reference_tables", "a30", "a33"))


def _other_intensity_form(doc):
    """The document with each intensity written in its other form, and the
    number of parties rewritten: an affine pair (a, b) becomes the explicit
    one-row table a + b k for k = 0..N, and a constant table c the pair (c, 0)."""
    doc = copy.deepcopy(doc)
    block, n = doc["contagion"], len(doc["portfolio"]["contracts"])
    rewritten = 0
    for key, a, b in _PARTIES:
        if key not in block:
            a_val, b_val = block.pop(a, 0.0), block.pop(b, 0.0)
            table = {"values": [[a_val + b_val * k for k in range(n + 1)]]}
            block[key] = [table] if key == "reference_tables" else table
        elif isinstance(block[key], float):
            block[a], block[b] = block.pop(key), 0.0
        else:
            continue
        rewritten += 1
    return doc, rewritten


class TestAffineShorthand:
    @pytest.mark.parametrize("full", [False, True], ids=["plain", "full"])
    @pytest.mark.parametrize("path", [SINGLE_NAME, FIVE_NAME], ids=["single", "five"])
    def test_either_form_gives_identical_surfaces(self, path, full):
        # affine parameters are shorthand for one-row tables, so writing a
        # config's intensities the other way changes no bit of any surface
        doc = _load_doc(path)
        other, n_rewritten = _other_intensity_form(doc)
        assert n_rewritten >= 2
        want, got = (
            run_engine(*market_from_dict(d), variants=("actual", "upper", "lower"),
                       grid_points=300, force_full=full, allow_assumption_violation=True)
            for d in (doc, other)
        )
        assert np.array_equal(want.clean, got.clean)
        assert np.array_equal(want.margins.m, got.margins.m)
        for which, result in want.xva.items():
            assert np.array_equal(result.surface, got.xva[which].surface)
            if which != "actual":
                assert np.array_equal(result.pocket, got.xva[which].pocket)
                assert np.array_equal(result.regime, got.xva[which].regime)


@st.composite
def _small_config(draw, n=None):
    """A single-name or 3-name homogeneous config that passes validation."""
    n = draw(st.sampled_from((1, 3))) if n is None else n
    rate = st.floats(0.0, 0.02)
    r_D = draw(rate)
    a20, a23 = draw(st.floats(0.05, 0.3)), draw(st.floats(0.0, 0.05))
    lo = a20 + r_D
    hi = lo + n * a23 + draw(st.floats(0.0, 0.1))
    contract = {"spread": draw(st.floats(0.005, 0.05)), "loss": draw(st.floats(0.1, 0.9)),
                "direction": draw(st.sampled_from((1, -1)))}
    doc = {
        "rates": {"r_D": r_D, "r_f_plus": r_D + draw(st.floats(0.0, 0.04)),
                  "r_f_minus": r_D + draw(st.floats(0.0, 0.04)),
                  "r_m_plus": draw(rate), "r_m_minus": draw(rate)},
        "counterparty_band": {"mu_lower": lo, "mu_upper": hi,
                              "mu_true": draw(st.one_of(st.just("model"), st.floats(lo, hi)))},
        "contagion": {"a10": draw(st.floats(0.05, 0.3)), "a13": draw(st.floats(0.0, 0.05)),
                      "a20": a20, "a23": a23,
                      "a30": draw(st.floats(0.05, 0.3)), "a33": draw(st.floats(0.0, 0.05))},
        "portfolio": {"contracts": [contract] * n, "maturity": draw(st.floats(0.25, 3.0)),
                      "L_I": draw(st.floats(0.0, 1.0)), "L_C": draw(st.floats(0.0, 1.0)),
                      "collateral": {"alpha": draw(st.floats(0.0, 1.0))}},
    }
    return doc, draw(st.integers(20, 200))


@st.composite
def _two_class_config(draw):
    """A config of two to four names in two classes, which differ in the
    contract and interleave in entity order."""
    sizes = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    doc, grid_points = draw(_small_config(n=sum(sizes)))
    first = doc["portfolio"]["contracts"][0]
    second = dict(first, spread=first["spread"] + draw(st.floats(0.001, 0.02)),
                  direction=draw(st.sampled_from((1, -1))))
    order = draw(st.permutations([first] * sizes[0] + [second] * sizes[1]))
    doc["portfolio"]["contracts"] = list(order)
    return doc, grid_points


def _solve(doc, grid_points, **kwargs):
    cfg, model, portfolio, model_P = market_from_dict(doc)
    assert validate_assumptions(cfg, model, horizon=portfolio.maturity).passed
    return run_engine(cfg, model, portfolio, model_P, variants=("actual", "upper", "lower"),
                      grid_points=grid_points, **kwargs)


_PROPERTY = settings(deadline=None, max_examples=12,
                     suppress_health_check=[HealthCheck.too_slow])


class TestJointPassProperties:
    @_PROPERTY
    @given(_small_config())
    def test_band_collapse_equalises_variants(self, case):
        doc, grid_points = case
        band = doc["counterparty_band"]
        band["mu_upper"] = band["mu_true"] = band["mu_lower"]
        res = _solve(doc, grid_points)
        for key in res.space.keys:
            actual = res.xva["actual"].surface[key]
            for which in ("upper", "lower"):
                assert np.max(np.abs(res.xva[which].surface[key] - actual)) <= 1e-10

    @_PROPERTY
    @given(_small_config())
    def test_bounds_order_every_node(self, case):
        res = _solve(*case)
        for key in res.space.keys:
            lower, actual, upper = (res.xva[w].surface[key]
                                    for w in ("lower", "actual", "upper"))
            assert np.min(actual - lower) >= -1e-10
            assert np.min(upper - actual) >= -1e-10

    @_PROPERTY
    @given(_small_config())
    def test_gamma_flip_negates_clean(self, case):
        doc, grid_points = case
        cfg, model, portfolio, model_P = market_from_dict(doc)
        clean = [run_engine(cfg, model, p, model_P, grid_points=grid_points).clean
                 for p in (portfolio, portfolio.flipped())]
        assert np.array_equal(-clean[0], clean[1])

    @_PROPERTY
    @given(_small_config(n=3))
    def test_homogeneous_equals_full(self, case):
        homo, full = (_solve(*case, force_full=f) for f in (False, True))
        assert homo.space.homogeneous and not full.space.homogeneous
        pairs = [(homo.clean, full.clean)] + [
            (homo.xva[w].surface, full.xva[w].surface) for w in ("actual", "upper", "lower")
        ]
        for h_surf, f_surf in pairs:
            for mask in full.space.keys:
                count = full.space.count(mask)
                assert np.max(np.abs(f_surf[mask] - h_surf[count])) <= 1e-12

    @_PROPERTY
    @given(_two_class_config())
    def test_grouped_equals_full(self, case):
        grouped, full = (_solve(*case, force_full=f) for f in (False, True))
        space = grouped.space
        assert len(space.classes) == 2 and len(full.space.classes) == space.n
        # the grouped key of a full mask counts its set bits class by class
        keys = [sum(stride * sum(mask >> (i - 1) & 1 for i in members)
                    for members, stride in zip(space.classes, space.strides))
                for mask in full.space.keys]
        pairs = [(grouped.clean, full.clean), (grouped.margins.m, full.margins.m)]
        pairs += [(grouped.xva[w].surface, full.xva[w].surface) for w in grouped.xva]
        pairs += [(grouped.xva[w].pocket, full.xva[w].pocket) for w in ("upper", "lower")]
        for g_surf, f_surf in pairs:
            assert np.max(np.abs(f_surf - g_surf[keys])) <= 1e-12

    @_PROPERTY
    @given(_small_config())
    def test_every_surface_finite(self, case):
        res = _solve(*case)
        surfaces = [res.clean, res.margins.m] + [res.xva[w].surface for w in res.xva]
        surfaces += [res.xva[w].pocket for w in ("upper", "lower")]
        for surface in surfaces:
            assert np.all(np.isfinite(surface))
