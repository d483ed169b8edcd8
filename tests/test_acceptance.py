"""Acceptance criteria, one test per criterion.

Each test prints a single ``[AC-NN] PASS/FAIL`` line summarizing the checked
clauses at their stated tolerances before asserting.

Where a criterion checks a solved value, the reference is computed here by a
method independent of the engine's fixed-step RK4 sweep: a matrix exponential
of the clean generator, or an adaptive DOP853 solve with event location.
"""

import copy
import json
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from rxva.clean import clean_closed_form_single
from rxva.collateral import initial_margin_closed_form, initial_margin_var
from rxva.engine import run_engine
from rxva.grids import StateSpace, build_grid
from rxva.market import (
    Contract,
    MarketConfig,
    PiecewiseTable,
    Portfolio,
    contagion_from_dict,
    load_config,
    market_from_dict,
)
from rxva.oracle import mc_clean_value, mc_xva_closeout, pathwise_wealth_check
from rxva.sweeps import SweepSpec, default_grid, is_monotone, run_sweep
from rxva.xva import solve_clean
import rxva.cli as cli

from conftest import FIVE_NAME, SINGLE_NAME

TRIPLE = ("actual", "upper", "lower")


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _sign_changes(grid: np.ndarray, values: np.ndarray) -> list[float]:
    """Linearly interpolated zero crossings of a nodal function."""
    out = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0 or a * b >= 0.0:
            continue
        out.append(float(grid[i] - a * (grid[i + 1] - grid[i]) / (b - a)))
    return out


def _clean_by_expm(cfg, model, portfolio):
    """Clean value v_hat(t) over the N + 1 count states, by matrix exponential.

    For k defaults and a = N - k alive names with intensity h_k, the ODE of
    ``rxva.clean`` in reversed time reads
    dv_k/ds = -r_D v_k - a S + a h_k (L + v_{k+1} - v_k), so with
    y = (v_0, ..., v_N, 1) it is dy/ds = G y and v(t) = expm(G (T - t)) e_last.
    Valid for identical contracts and time-constant intensities.
    """
    n = portfolio.n
    con = portfolio.contracts[0]
    assert all(c == con for c in portfolio.contracts)
    assert not model.breakpoints()
    S, L = con.direction * con.spread, con.direction * con.loss
    G = np.zeros((n + 2, n + 2))
    for k in range(n):
        alive = n - k
        rate = alive * model.intensity_by_count(1, 0.0, k)
        G[k, k] = -cfg.r_D - rate
        G[k, k + 1] = rate
        G[k, n + 1] = rate * L - alive * S
    G[n, n] = -cfg.r_D
    return lambda t: expm(G * (portfolio.maturity - t))[:-1, -1]


def _reference_xva(cfg, model, portfolio, mode, v_hat):
    """Robust XVA bound on the homogeneous lattice by adaptive DOP853.

    Written out from the driver documented in ``rxva.xva`` (``lattice_rhs``):
    theta_I_tilde = -L_I (v - m)^+, theta_C_tilde =
    L_C (v - m)^-, z_I/z_C = theta_tilde - u, and the band extreme is
    mu_upper (``upper``) or mu_lower (``lower``) where z_C >= 0.  ``v_hat(t)``
    gives the clean value on the N + 1 count states; the margin is
    m = alpha v_hat (no initial margin).  The solve runs from T down to 0
    piece by piece between intensity breakpoints, with rtol 1e-12, and locates
    the interior zeros of z_C at the root state as events.

    Returns u(0) on every state and the root switch times in (0, T).
    """
    n = portfolio.n
    con = portfolio.contracts[0]
    assert all(c == con for c in portfolio.contracts)
    assert portfolio.collateral.beta == 0.0
    L_I, L_C = portfolio.loss_investor, portfolio.loss_counterparty
    alpha = portfolio.collateral.alpha
    T = portfolio.maturity
    counts = range(n + 1)
    alive = n - np.arange(n + 1)
    sum_L = alive * con.direction * con.loss
    h_on_pos, h_on_neg = cfg.mu_C_upper - cfg.r_D, cfg.mu_C_lower - cfg.r_D
    if mode == "lower":
        h_on_pos, h_on_neg = h_on_neg, h_on_pos

    def exposures(t, u):
        v = v_hat(t)
        m = alpha * v
        gap = v - m
        z_I = -L_I * np.maximum(gap, 0.0) - u
        z_C = L_C * np.maximum(-gap, 0.0) - u
        return m, z_I, z_C

    def du_dt(t, u):
        m, z_I, z_C = exposures(t, u)
        h_I = np.array([model.intensity_by_count("I", t, k) for k in counts])
        h_ref = np.array([model.intensity_by_count(1, t, k) for k in counts])
        h_C = np.where(z_C >= 0.0, h_on_pos, h_on_neg)
        z = alive * (np.append(u[1:], 0.0) - u)
        y = u + z + z_I + z_C + sum_L - m
        f = (
            -(cfg.r_f_plus * np.maximum(y, 0.0)
              - cfg.r_f_minus * np.maximum(-y, 0.0))
            + cfg.r_D * (z + z_I + z_C)
            - (cfg.r_m_plus * np.maximum(m, 0.0)
               - cfg.r_m_minus * np.maximum(-m, 0.0))
            + cfg.r_D * sum_L
        )
        # the driver is du/ds in reversed time s = T - t
        return -(h_I * z_I + h_C * z_C + h_ref * z + f)

    def root_z_c(t, u):
        return exposures(t, u)[2][0]

    edges = [T] + sorted((b for b in model.breakpoints() if 0.0 < b < T),
                         reverse=True) + [0.0]
    u = np.zeros(n + 1)
    switches = []
    for a, b in zip(edges, edges[1:]):
        sol = solve_ivp(du_dt, (a, b), u, method="DOP853", rtol=1e-12,
                        atol=1e-14, events=root_z_c)
        assert sol.success, sol.message
        switches.extend(float(t) for t in sol.t_events[0] if 0.0 < t < T)
        u = sol.y[:, -1]
    return u, sorted(switches)


def test_ac01_benchmark_ordering_and_switch_time():
    cfg, model, portfolio, model_P = load_config(SINGLE_NAME)
    t0 = time.perf_counter()
    res = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                     grid_points=2000)
    runtime = time.perf_counter() - t0

    slack = np.inf
    for key in res.space.keys:
        lo = res.xva["lower"].surface.values[key]
        ac = res.xva["actual"].surface.values[key]
        up = res.xva["upper"].surface.values[key]
        slack = min(slack, float(np.min(ac - lo)), float(np.min(up - ac)))
    ordering_ok = slack >= -1e-10

    L_C = portfolio.loss_counterparty
    v = res.clean.values[0]
    u_star = res.xva["upper"].surface.values[0]
    z_c = L_C * np.maximum(-v, 0.0) - u_star
    crossings = _sign_changes(res.grid, z_c)
    runtime_ok = runtime < 1.0

    # independent reference: the scalar single-name upper equation with the
    # closed-form clean value, solved adaptively with the switches as events
    con = portfolio.contracts[0]
    table = model.references[0]

    def v_hat(t):
        return np.array([clean_closed_form_single(
            cfg.r_D, table, con.spread, con.loss, portfolio.maturity, t,
            con.direction), 0.0])

    ref_u, ref_switches = _reference_xva(cfg, model, portfolio, "upper", v_hat)
    step = float(np.max(np.diff(res.grid)))
    switch_ok = len(crossings) == len(ref_switches) and all(
        abs(c - r) <= step for c, r in zip(crossings, ref_switches)
    )
    u_up, u_lo = res.xva["upper"].surface.at0(0), res.xva["lower"].surface.at0(0)
    value_ok = abs(u_up - ref_u[0]) <= 1e-8

    # the robust bounds are not plug-in solves at either band extreme
    with open(SINGLE_NAME, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    plug_in = []
    for extreme in ("mu_lower", "mu_upper"):
        d = copy.deepcopy(doc)
        d["counterparty_band"]["mu_true"] = d["counterparty_band"][extreme]
        p_cfg, p_model, p_portfolio, p_model_P = market_from_dict(d)
        p_res = run_engine(p_cfg, p_model, p_portfolio, p_model_P,
                           variants=("actual",), grid_points=2000)
        plug_in.append(p_res.xva["actual"].surface.at0(0))
    plug_in_ok = (u_up >= max(plug_in) + 1e-4 and u_lo <= min(plug_in) - 1e-4)

    detail = (
        f"ordering slack {slack:.2e} (>= -1e-10: {ordering_ok}); "
        f"upper switch times {[round(c, 5) for c in crossings]} vs "
        f"event-located {[round(r, 5) for r in ref_switches]}, within one "
        f"grid step {step:.4f}: {switch_ok}; u_upper(0) {u_up:.10f} vs "
        f"{ref_u[0]:.10f} (<= 1e-8: {value_ok}); plug-in solves "
        f"{[round(p, 6) for p in plug_in]} lie 1e-4 inside "
        f"[{u_lo:.6f}, {u_up:.6f}]: {plug_in_ok}; "
        f"runtime {runtime:.2f}s (< 1s: {runtime_ok})"
    )
    _report("AC-01", ordering_ok and switch_ok and value_ok and plug_in_ok
            and runtime_ok, detail)


def test_ac02_five_name_clean_value():
    cfg, model, portfolio, model_P = load_config(FIVE_NAME)
    t0 = time.perf_counter()
    res = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                     grid_points=2000, allow_assumption_violation=True)
    res_full = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                          grid_points=2000, force_full=True,
                          allow_assumption_violation=True)
    runtime = time.perf_counter() - t0

    v0 = res.clean.at0(0)
    ref = float(_clean_by_expm(cfg, model, portfolio)(0.0)[0])
    value_ok = abs(v0 - ref) <= 1e-8
    runtime_ok = runtime < 5.0
    consistent = abs(v0 - res_full.clean.at0(0)) < 1e-12
    detail = (
        f"v_hat(0) = {v0:.14f}, matrix-exponential reference {ref:.14f} "
        f"(<= 1e-8: {value_ok}); full 2^5 lattice agrees (< 1e-12): "
        f"{consistent}; runtime incl. 2^5 lattice {runtime:.2f}s "
        f"(< 5s: {runtime_ok})"
    )
    _report("AC-02", value_ok and runtime_ok and consistent, detail)


def test_ac03_clean_ode_vs_closed_form():
    rng = np.random.default_rng(2024)
    worst_overall = 0.0
    for _ in range(50):
        r_D = rng.uniform(0.0, 0.05)
        S = rng.uniform(0.0, 0.1)
        L = rng.uniform(0.0, 1.0)
        T = rng.uniform(0.5, 4.0)
        n_breaks = int(rng.integers(0, 4))
        breaks = tuple(np.sort(rng.uniform(0.05 * T, 0.95 * T, n_breaks)))
        h_values = tuple(rng.uniform(0.01, 0.5, n_breaks + 1))
        direction = 1 if rng.random() < 0.5 else -1
        table = PiecewiseTable(breaks=breaks,
                               values=tuple((float(h),) for h in h_values))
        cfg = MarketConfig(r_D=r_D, r_f_plus=r_D, r_f_minus=r_D,
                           r_m_plus=r_D, r_m_minus=r_D,
                           mu_C_lower=1.0, mu_C_upper=1.0)
        model = replace(contagion_from_dict({"a10": 0.1, "a20": 0.1}, 1), references=(table,))
        portfolio = Portfolio(
            contracts=(Contract(spread=S, loss=L, direction=direction),),
            maturity=T, loss_investor=0.5, loss_counterparty=0.5,
        )
        grid = build_grid(T, table.breaks, min_points=2000)
        surface = solve_clean(cfg, model, portfolio, grid,
                              StateSpace(((1,),)))
        worst = max(
            abs(surface.values[0][idx] - clean_closed_form_single(
                r_D, table, S, L, T, float(t), direction
            ))
            for idx, t in enumerate(grid)
        )
        worst_overall = max(worst_overall, worst)
    ok = worst_overall < 1e-8
    _report("AC-03", ok,
            f"50 randomized draws, max |ODE - closed form| over the grid = "
            f"{worst_overall:.2e} (< 1e-8)")


def test_ac04_initial_margin_bisection_vs_closed_form():
    rng = np.random.default_rng(77)
    worst = 0.0
    zero_ok = True
    for _ in range(100):
        h = rng.uniform(0.05, 1.0)
        delta = rng.uniform(0.01, 0.2)
        floor = float(np.exp(-h * delta))
        q = floor + (1.0 - floor) * rng.uniform(0.02, 0.98)
        S = rng.uniform(0.0, 0.1)
        L = rng.uniform(0.1, 1.0)
        beta = rng.uniform(0.1, 2.0)
        T = delta + rng.uniform(0.5, 5.0)
        t = rng.uniform(0.0, T - delta - 1e-9)
        got = initial_margin_var(h_P=h, S=S, L=L, q=q, delta=delta,
                                 beta=beta, gamma=-1, t=t, T=T)
        want = initial_margin_closed_form(h, S, L, q, delta, beta)
        worst = max(worst, abs(got - want))
        # below the activation threshold the margin is exactly zero
        q_low = floor * rng.uniform(0.2, 1.0)
        zero_ok = zero_ok and initial_margin_var(
            h_P=h, S=S, L=L, q=q_low, delta=delta,
            beta=beta, gamma=-1, t=t, T=T,
        ) == 0.0
    ok = worst < 1e-8 and zero_ok
    _report("AC-04", ok,
            f"100 random (h, q, delta, S, L, beta) draws, max "
            f"|bisection - closed form| = {worst:.2e} (< 1e-8); "
            f"q <= e^(-h delta) gives exactly 0: {zero_ok}")


def test_ac05_band_collapse():
    worst = 0.0
    for n in (1, 3, 5):
        r_D, a20 = 0.001, 0.05
        mu = a20 + r_D
        cfg = MarketConfig(r_D=r_D, r_f_plus=r_D, r_f_minus=r_D,
                           r_m_plus=r_D, r_m_minus=r_D,
                           mu_C_lower=mu, mu_C_upper=mu, mu_C_true=mu)
        model = contagion_from_dict({"a10": 0.05, "a20": a20, "a30": 0.1, "a33": 0.05}, n)
        con = Contract(spread=0.02, loss=0.5)
        portfolio = Portfolio(contracts=(con,) * n, maturity=1.0,
                              loss_investor=0.5, loss_counterparty=0.5)
        res = run_engine(cfg, model, portfolio, variants=TRIPLE,
                         grid_points=1000)
        for key in res.space.keys:
            a = res.xva["actual"].surface.values[key]
            u = res.xva["upper"].surface.values[key]
            lo = res.xva["lower"].surface.values[key]
            worst = max(worst, float(np.max(np.abs(u - a))),
                        float(np.max(np.abs(lo - a))))
    ok = worst < 1e-10
    _report("AC-05", ok,
            f"collapsed band, N in (1, 3, 5): max nodewise spread among the "
            f"three XVA surfaces = {worst:.2e} (< 1e-10)")


def test_ac06_oracle_equivalence(single_name_result):
    res = single_name_result
    est, se = mc_clean_value(res.cfg, res.model, res.portfolio,
                             100_000, seed=101)
    ode = res.clean.at0(0)
    clean_ok = abs(est - ode) <= 3.0 * se
    se_ok = se < 5e-4

    with open(SINGLE_NAME, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    true = doc["counterparty_band"]["mu_true"]
    doc["counterparty_band"]["mu_lower"] = true
    doc["counterparty_band"]["mu_upper"] = true
    cfg, model, portfolio, model_P = market_from_dict(doc)
    collapsed = run_engine(cfg, model, portfolio, model_P,
                           variants=TRIPLE, grid_points=2000)
    mc_u, mc_se = mc_xva_closeout(collapsed, 100_000, seed=102)
    ode_u = collapsed.xva["upper"].surface.at0(0)
    xva_ok = abs(mc_u - ode_u) <= 3.0 * mc_se

    ok = clean_ok and se_ok and xva_ok
    _report("AC-06", ok,
            f"clean MC {est:.6f} vs ODE {ode:.6f}, |diff|/SE = "
            f"{abs(est - ode) / max(se, 1e-300):.2f} (<= 3), SE = {se:.1e} "
            f"(< 5e-4); band-collapsed closeout MC {mc_u:.6f} vs ODE "
            f"{ode_u:.6f}, |diff|/SE = {abs(mc_u - ode_u) / mc_se:.2f} (<= 3)")


def test_ac07_superreplication_dominance(single_name_result):
    res = single_name_result
    band_mid = 0.5 * (res.cfg.mu_C_lower + res.cfg.mu_C_upper)
    assert abs(res.cfg.mu_C_true - band_mid) < 1e-12
    upper = pathwise_wealth_check(res, "upper", 10_000, seed=103,
                                  tolerance=1e-8)
    lower = pathwise_wealth_check(res, "lower", 10_000, seed=104,
                                  tolerance=1e-8)
    ok = upper.violations == 0 and lower.violations == 0
    _report("AC-07", ok,
            f"10^4 Q-paths at the band midpoint: upper violations "
            f"{upper.violations} (worst margin {upper.worst_margin:.2e}), "
            f"lower violations {lower.violations} "
            f"(worst margin {lower.worst_margin:.2e}); tolerance 1e-8")


def test_ac08_homogeneous_reduction():
    cfg, model, portfolio, model_P = load_config(FIVE_NAME)
    # interleaved repeats; the fastest of each path is the least disturbed
    # by other load on the machine
    t_homo, t_full = [], []
    for _ in range(3):
        homo = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                          grid_points=2000, allow_assumption_violation=True)
        full = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                          grid_points=2000, force_full=True,
                          allow_assumption_violation=True)
        t_homo.append(sum(homo.timings.values()))
        t_full.append(sum(full.timings.values()))
    worst = 0.0
    surfaces = [("clean", homo.clean, full.clean)] + [
        (w, homo.xva[w].surface, full.xva[w].surface) for w in TRIPLE
    ]
    for _, h_surf, f_surf in surfaces:
        for mask in full.space.keys:
            count = bin(mask).count("1")
            diff = np.max(np.abs(f_surf.values[mask] - h_surf.values[count]))
            worst = max(worst, float(diff))
    match_ok = worst < 1e-10
    speedup = min(t_full) / min(t_homo)
    speed_ok = speedup >= 4.0
    _report("AC-08", match_ok and speed_ok,
            f"N=5 homogeneous vs full 2^5: max |diff| over every node and "
            f"state = {worst:.2e} (< 1e-10); speedup {speedup:.2f}x (>= 4x), "
            f"fastest of 3 interleaved runs each")


def test_ac09_comparative_statics():
    with open(FIVE_NAME, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def sweep(param):
        base = float(doc["contagion"].get(param, 0.0))
        spec = SweepSpec(param=param, values=default_grid(base, points=21))
        result = run_sweep(doc, spec, grid_points=2000,
                           allow_assumption_violation=True)
        assert all(r.ok for r in result.rows)
        return result

    checks = {}

    r = sweep("a20")
    checks["a20: |XVA| nonincreasing (all three)"] = all(
        is_monotone(np.abs(r.column(col)), "nonincreasing", slack=1e-10)
        for col in ("xva_lower", "xva_actual", "xva_upper")
    )

    r = sweep("a23")
    checks["a23: lower constant"] = is_monotone(
        r.column("xva_lower"), "constant", slack=1e-10
    )
    checks["a23: |upper| decreasing"] = is_monotone(
        np.abs(r.column("xva_upper")), "nonincreasing", slack=1e-10
    )

    r = sweep("a33")
    checks["a33: v_hat(0) increasing"] = is_monotone(
        r.column("v_hat_0"), "nondecreasing", slack=1e-10
    )

    # the effect of a30 on the band gap is not signed a priori: take its
    # direction from an independent solve at the two ends of the grid
    r = sweep("a30")
    gap = r.column("xva_upper") - r.column("xva_lower")
    ref_gap = []
    for end in (r.rows[0].value, r.rows[-1].value):
        d = copy.deepcopy(doc)
        d["contagion"]["a30"] = end
        cfg, model, portfolio, _ = market_from_dict(d)
        v_hat = _clean_by_expm(cfg, model, portfolio)
        up, _ = _reference_xva(cfg, model, portfolio, "upper", v_hat)
        lo, _ = _reference_xva(cfg, model, portfolio, "lower", v_hat)
        ref_gap.append(float(up[0] - lo[0]))
    direction = ("nondecreasing" if ref_gap[1] > ref_gap[0]
                 else "nonincreasing")
    checks["a30: band gap at the grid ends matches the reference (1e-8)"] = (
        abs(gap[0] - ref_gap[0]) <= 1e-8 and abs(gap[-1] - ref_gap[1]) <= 1e-8
    )
    checks[f"a30: band gap {direction} as the reference "
           f"({ref_gap[0]:.10f} -> {ref_gap[1]:.10f})"] = is_monotone(
        gap, direction, slack=1e-10
    )

    ok = all(checks.values())
    detail = "; ".join(f"{name}: {flag}" for name, flag in checks.items())
    _report("AC-09", ok, f"21-point sweeps with 1e-10 slack -- {detail}")


def test_ac10_determinism(tmp_path):
    jobs = {
        "price": ["price", "--grid-points", "2000"],
        "xva": ["xva", "--grid-points", "2000"],
        "verify": ["verify", "--grid-points", "600", "--paths", "2000",
                   "--seed", "5"],
        "sweep": ["sweep", "--grid-points", "400", "--param", "band_width",
                  "--points", "5"],
    }
    all_ok = True
    notes = []
    for name, argv in jobs.items():
        dirs = [tmp_path / f"{name}_{i}" for i in (1, 2)]
        for d in dirs:
            code = cli.main(argv + ["--config", str(SINGLE_NAME),
                                    "--out-dir", str(d)])
            assert code == 0, f"{name} exited {code}"
        artifacts = sorted(p.name for p in dirs[0].iterdir())
        same = True
        for fname in artifacts:
            a = (dirs[0] / fname).read_bytes()
            b = (dirs[1] / fname).read_bytes()
            if fname == "manifest.json":
                da, db = json.loads(a), json.loads(b)
                da.pop("wall_clock_s")
                db.pop("wall_clock_s")
                same = same and da == db
            else:
                same = same and a == b
        all_ok = all_ok and same
        notes.append(f"{name}: {'identical' if same else 'MISMATCH'}")
    _report("AC-10", all_ok,
            "repeat runs byte-identical (manifest wall clock aside) -- "
            + ", ".join(notes))
