"""Monte Carlo verification oracle.

Simulates default times exactly (inverse CDF on each constant-intensity
segment, with fresh exponential clocks after every default), prices the
portfolio cash flows pathwise, and audits the ODE outputs:

* clean value against the discounted cash-flow average;
* actual XVA against the discounted closeout average (valid when the funding
  driver is linear: symmetric treasury rates equal to r_D and no collateral);
* super-replication dominance of the robust strategy and sub-replication of
  the lower strategy, via the accumulated pocket surplus;
* the wealth drift identity linking the strategy holdings to the XVA drift.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .clean import lattice_coefficients
from .collateral import closeout_excess
from .engine import EngineResult
from .grids import LatticeSurface
from .market import ContagionModel, MarketConfig, Portfolio
from .strategies import robust_strategy, wealth_drift
from .xva import lattice_rhs, resolve_true_h_c


# ---------------------------------------------------------------------------
# Exact default-time sampling
# ---------------------------------------------------------------------------

PARTY_NONE, PARTY_I, PARTY_C = 0, 1, 2


@dataclass
class PathBatch:
    """Sampled scenarios in columns, one row per path.

    ``event_time[p, r]`` and ``event_entity[p, r]`` are the time and the
    1-based entity of the r-th reference default of path p, for
    r < ``n_events[p]`` (inf and 0 beyond).  ``party[p]`` is PARTY_I or
    PARTY_C when a trading party defaulted before T, else PARTY_NONE, and
    ``party_time[p]`` is its default time (inf for PARTY_NONE).
    """

    event_time: np.ndarray
    event_entity: np.ndarray
    n_events: np.ndarray
    party: np.ndarray
    party_time: np.ndarray

    def __len__(self) -> int:
        return len(self.party)

    def default_times(self) -> np.ndarray:
        """(paths, entities) default time of each entity, inf when it survived."""
        n_paths, n = self.event_time.shape
        out = np.full((n_paths, n), math.inf)
        rows, rounds = np.nonzero(self.event_entity)
        out[rows, self.event_entity[rows, rounds] - 1] = self.event_time[rows, rounds]
        return out


class _Clocks:
    """Competing default clocks of one portfolio, tabulated per time piece.

    Clock c < n is reference entity c + 1; with parties, clocks n and n + 1
    are the investor and the counterparty.  ``h[c, k, q]`` is the intensity
    of clock c with k prior reference defaults on piece q of the model's
    breakpoints (piece q covers [breaks[q-1], breaks[q])).
    """

    def __init__(self, model, portfolio, include_parties, h_C_true):
        n, T = portfolio.n, portfolio.maturity
        breaks = model.breakpoints()
        self.n, self.T = n, T
        self.breaks = np.asarray(breaks, dtype=float)
        self.edges = np.array([b for b in breaks if 0.0 < b < T] + [T])
        tables = [model.table(i) for i in range(1, n + 1)]
        if include_parties:
            tables += [model.investor, h_C_true if h_C_true is not None else model.counterparty]
        # the left end of each piece lies in it (side="right" lookup)
        left = [-math.inf, *breaks]
        self.h = np.array([[[tab.at(t, k) for t in left] for k in range(n + 1)] for tab in tables])

    def invert(self, clock: int, count: int, t0: np.ndarray, target: np.ndarray) -> np.ndarray:
        """First time after t0 at which the cumulated intensity reaches target.

        Crosses the pieces one segment at a time with the scalar recursion
        (``remaining -= h * span``, then ``prev + remaining / h``), so each
        time is bit-identical to a per-path loop; inf when not before T.
        """
        h_of_piece = self.h[clock, count]
        last = len(self.edges) - 1
        out = np.full(len(t0), math.inf)
        rows = np.arange(len(t0))
        j = np.searchsorted(self.edges[:-1], t0, side="right")
        prev, remaining = t0, target
        while rows.size:
            edge = self.edges[j]
            h = h_of_piece[np.searchsorted(self.breaks, 0.5 * (prev + edge), side="right")]
            mass = h * (edge - prev)
            hit = (h > 0.0) & (mass >= remaining)
            k = np.flatnonzero(hit)
            out[rows[k]] = prev[k] + remaining[k] / h[k]
            go = np.flatnonzero(~hit & (j < last))
            rows, j = rows[go], j[go] + 1
            prev, remaining = edge[go], (remaining - mass)[go]
        return out


def simulate_paths(
    model: ContagionModel,
    portfolio: Portfolio,
    n_paths: int,
    seed: int,
    include_parties: bool = True,
    h_C_true=None,
) -> PathBatch:
    """Exact stepwise sampling of correlated default times.

    After every reference default the surviving intensities are re-evaluated
    in the new state and all exponential clocks are redrawn, which is
    distributionally exact by the memoryless property.  ``h_C_true``, a
    PiecewiseTable whose breaks are among the model's, overrides the model
    counterparty intensity.

    Round r draws one row of ``default_rng(seed).exponential`` per path
    still running, in ascending path order, and one column per clock: the
    names in id order, then the investor and the counterparty.  A path
    reads the columns of its surviving names and of the parties, and ends
    unless a reference name defaults first before T.
    """
    rng = np.random.default_rng(seed)
    clocks = _Clocks(model, portfolio, include_parties, h_C_true)
    n, n_clocks = clocks.n, len(clocks.h)
    batch = PathBatch(
        event_time=np.full((n_paths, n), math.inf),
        event_entity=np.zeros((n_paths, n), dtype=np.int64),
        n_events=np.zeros(n_paths, dtype=np.int64),
        party=np.zeros(n_paths, dtype=np.int8),
        party_time=np.full(n_paths, math.inf),
    )
    live = np.arange(n_paths)
    t = np.zeros(n_paths)
    dead = np.zeros((n_paths, n), dtype=bool)
    for r in range(n + 1):  # every live path has r reference defaults
        draws = rng.exponential(size=(live.size, n_clocks))
        t0, alive = t[live], ~dead[live]
        best_t = np.full(live.size, math.inf)
        best = np.full(live.size, -1)
        for c in range(n_clocks):
            sel = np.flatnonzero(alive[:, c]) if c < n else slice(None)
            cand = clocks.invert(c, r, t0[sel], draws[sel, c])
            win = cand < best_t[sel]
            best_t[sel] = np.where(win, cand, best_t[sel])
            best[sel] = np.where(win, c, best[sel])
        ended = (best < 0) | (best_t >= clocks.T)
        party = ~ended & (best >= n)
        batch.party[live[party]] = best[party] - n + 1
        batch.party_time[live[party]] = best_t[party]
        ref = ~ended & ~party
        live, who = live[ref], best[ref]
        if not live.size:
            break
        batch.event_time[live, r] = t[live] = best_t[ref]
        batch.event_entity[live, r] = who + 1
        batch.n_events[live] = r + 1
        dead[live, who] = True
    return batch


# ---------------------------------------------------------------------------
# Clean value
# ---------------------------------------------------------------------------

def _annuity(r_D: float, x: float) -> float:
    if r_D == 0.0:
        return x
    return (1.0 - math.exp(-r_D * x)) / r_D


def _contract_cash_flow(cfg: MarketConfig, con, tau: float, T: float) -> float:
    if tau <= T:
        return con.direction * (
            -con.spread * _annuity(cfg.r_D, tau) + con.loss * math.exp(-cfg.r_D * tau)
        )
    return con.direction * (-con.spread * _annuity(cfg.r_D, T))


def mc_clean_value(
    cfg: MarketConfig,
    model: ContagionModel,
    portfolio: Portfolio,
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """Discounted cash-flow estimate of the time-0 clean value, with its SE.

    Single-name portfolios use a stratified estimator (two draws per
    stratum of the default-time quantile), which keeps the standard error
    well below the plain-sampling level at the same path count.
    """
    if portfolio.n == 0:
        return 0.0, 0.0
    if portfolio.n == 1:
        return _mc_clean_single_stratified(cfg, model, portfolio, n_paths, seed)
    paths = simulate_paths(model, portfolio, n_paths, seed, include_parties=False)
    T = portfolio.maturity
    contracts = portfolio.contracts
    vals = np.full(
        n_paths, sum(_contract_cash_flow(cfg, con, math.inf, T) for con in contracts)
    )
    taus = paths.default_times()
    for p in np.flatnonzero(paths.n_events).tolist():
        vals[p] = sum(
            _contract_cash_flow(cfg, con, tau, T)
            for con, tau in zip(contracts, taus[p].tolist())
        )
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return est, se


def _mc_clean_single_stratified(cfg, model, portfolio, n_paths, seed):
    """Stratified single-name estimator.

    The survival event {tau > T} has known probability and a deterministic
    cash flow, so it is priced exactly; the quantile space of {tau <= T},
    where the discounted flow is continuous in the draw, is covered by
    proportionally allocated strata with two draws each.  This keeps the
    within-stratum standard error estimate valid (no stratum straddles the
    payoff discontinuity at tau = T).
    """
    rng = np.random.default_rng(seed)
    con = portfolio.contracts[0]
    T = portfolio.maturity
    breaks = [b for b in model.breakpoints() if 0.0 < b < T]
    edges = np.array([0.0] + breaks + [T])
    h_vals = np.array([
        model.intensity_by_count(1, 0.5 * (a + b), 0)
        for a, b in zip(edges[:-1], edges[1:])
    ])
    cum = np.concatenate([[0.0], np.cumsum(h_vals * np.diff(edges))])
    p_default = -math.expm1(-cum[-1])  # P(tau <= T)
    survival_flow = con.direction * (-con.spread * _annuity(cfg.r_D, T))
    if p_default == 0.0:
        return survival_flow, 0.0
    n_strata = max(1, n_paths // 2)
    draws = rng.random((n_strata, 2))
    u = p_default * (np.arange(n_strata)[:, None] + draws) / n_strata
    exp_draw = -np.log1p(-u)
    tau = np.interp(exp_draw, cum, edges)
    if cfg.r_D == 0.0:
        annuity = tau
    else:
        annuity = (1.0 - np.exp(-cfg.r_D * tau)) / cfg.r_D
    flows = con.direction * (
        -con.spread * annuity + con.loss * np.exp(-cfg.r_D * tau)
    )
    est = (1.0 - p_default) * survival_flow + p_default * float(np.mean(flows))
    stratum_var = 0.5 * (flows[:, 0] - flows[:, 1]) ** 2
    se = p_default * float(math.sqrt(np.sum(stratum_var / 2.0)) / n_strata)
    return est, se


# ---------------------------------------------------------------------------
# XVA closeout estimate (linear driver)
# ---------------------------------------------------------------------------

def is_linear_driver(cfg: MarketConfig, portfolio: Portfolio) -> bool:
    """True when the reduced driver collapses to plain discounting at r_D."""
    coll = portfolio.collateral
    return (
        cfg.r_f_plus == cfg.r_D
        and cfg.r_f_minus == cfg.r_D
        and coll.alpha == 0.0
        and coll.beta == 0.0
    )


def _state_keys(result: EngineResult, paths: PathBatch, rows, times) -> np.ndarray:
    """State key of each path in ``rows`` at ``times``: its earlier defaults."""
    space = result.space
    keys = np.zeros(len(rows), dtype=np.int64)
    for r in range(space.n):  # events are in time order
        before = paths.event_time[rows, r] < times
        keys[before] = space.child(keys[before], paths.event_entity[rows[before], r])
    return keys


def _at(surface: LatticeSurface, keys: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``surface.at(key, t)`` for paired arrays, one np.interp per distinct key."""
    out = np.empty(len(times))
    for key in np.unique(keys).tolist():
        sel = keys == key
        out[sel] = np.interp(times[sel], surface.grid, surface.values[key])
    return out


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, the order of an accumulating loop."""
    return functools.reduce(operator.add, values.tolist(), 0.0)


def mc_xva_closeout(
    result: EngineResult, n_paths: int, seed: int
) -> tuple[float, float]:
    """Discounted closeout estimate of the time-0 actual XVA.

    Only meaningful for a linear reduced driver (see is_linear_driver); the
    estimator averages e^{-r_D tau} theta_tilde over the first trading-party
    default before maturity.
    """
    cfg, portfolio = result.cfg, result.portfolio
    h_true = resolve_true_h_c(cfg, result.model)
    if h_true is None:
        raise ValueError("the XVA closeout estimate requires mu_C_true")
    paths = simulate_paths(
        result.model, portfolio, n_paths, seed, include_parties=True, h_C_true=h_true
    )
    rows = np.flatnonzero(paths.party)
    tau = paths.party_time[rows]
    keys = _state_keys(result, paths, rows, tau)
    theta_I, theta_C = closeout_excess(
        _at(result.clean, keys, tau), _at(result.margins.m, keys, tau),
        portfolio.loss_investor, portfolio.loss_counterparty,
    )
    payoff = np.where(paths.party[rows] == PARTY_I, theta_I, theta_C)
    vals = np.zeros(n_paths)
    # math.exp, not np.exp, keeps the last bits of the scalar estimator
    vals[rows] = np.array([math.exp(-cfg.r_D * t) for t in tau.tolist()]) * payoff
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return est, se


# ---------------------------------------------------------------------------
# Pathwise wealth of the robust / lower strategies
# ---------------------------------------------------------------------------

@dataclass
class WealthReport:
    n_paths: int
    violations: int
    worst_margin: float
    mean_surplus: float


def pathwise_wealth_check(
    result: EngineResult,
    which: str,
    n_paths: int,
    seed: int,
    tolerance: float = 1e-8,
) -> WealthReport:
    """Pathwise dominance audit of the robust (or lower) strategy.

    The strategy holds the prescribed positions at all times; their value
    follows the corresponding XVA surface, is continuous across reference
    defaults, and settles into the closeout value at the first trading-party
    default.  The wealth in excess of the surface accrues in a cash pocket at
    the surplus rate integrated in the pocket surface, so terminal wealth
    equals the rXVA payoff plus the accumulated pocket.  Dominance requires
    the pocket to stay nonnegative for the upper strategy (nonpositive for
    the lower one).
    """
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    xres = result.xva[which]
    if xres.pocket is None:
        raise ValueError("pocket surface missing: solve with mu_C_true set")
    h_true = resolve_true_h_c(result.cfg, result.model)
    paths = simulate_paths(
        result.model, result.portfolio, n_paths, seed,
        include_parties=True, h_C_true=h_true,
    )
    pocket_surface = xres.pocket
    end = np.where(paths.party == PARTY_NONE, result.portfolio.maturity, paths.party_time)
    pocket = np.zeros(n_paths)
    key = np.zeros(n_paths, dtype=np.int64)
    t_prev = np.zeros(n_paths)
    rows = np.arange(n_paths)
    for r in range(result.portfolio.n):
        t_ev = paths.event_time[rows, r]
        keep = t_ev < end[rows]  # events before the path's end; padding is inf
        rows, t_ev = rows[keep], t_ev[keep]
        k = key[rows]
        pocket[rows] += _at(pocket_surface, k, t_prev[rows]) - _at(pocket_surface, k, t_ev)
        key[rows] = result.space.child(k, paths.event_entity[rows, r])
        t_prev[rows] = t_ev
    pocket += _at(pocket_surface, key, t_prev) - _at(pocket_surface, key, end)
    surplus = (1.0 if which == "upper" else -1.0) * pocket
    return WealthReport(
        n_paths=n_paths,
        violations=int(np.count_nonzero(surplus < -tolerance)),
        worst_margin=functools.reduce(min, surplus.tolist(), math.inf),
        mean_surplus=_running_sum(surplus) / n_paths,
    )


# ---------------------------------------------------------------------------
# Wealth drift identity
# ---------------------------------------------------------------------------

def drift_identity_error(result: EngineResult, which: str = "upper", stride: int = 50) -> float:
    """Max deviation between position-implied drift and the XVA drift.

    At every sampled node and state, the wealth drift of the strategy
    holdings under the true counterparty rate must equal the negative of the
    solver's own reduced driver (``lattice_rhs``) evaluated with the true
    rate at the same surface value; the difference of the two drivers is
    exactly the surplus rate.
    """
    cfg, model, portfolio = result.cfg, result.model, result.portfolio
    h_true = resolve_true_h_c(cfg, model)
    if h_true is None:
        raise ValueError("the drift identity requires mu_C_true")
    surface = result.xva[which].surface
    space, grid, margins = result.space, result.grid, result.margins
    times = grid[::stride]
    bundles = lattice_coefficients(model, portfolio, space, h_true, times)
    driver = lattice_rhs(cfg, portfolio, space.size, margins.alpha, ("actual",))
    worst = 0.0
    for t, states in zip(times.tolist(), bundles):
        im = [margins.im.at(k, t) for k in space.keys]
        y = [result.clean.at(k, t) for k in space.keys] + [surface.at(k, t) for k in space.keys]
        g = driver(states, im, im, 0.0, y)
        for key in space.keys:
            count = space.count(key)
            snap = robust_strategy(surface, result.clean, margins.m, portfolio, t, key)
            mu_true = h_true.at(t, count) + cfg.r_D
            drift = wealth_drift(
                cfg, model, portfolio, snap, margins.m.at(key, t), mu_true, t, count
            )
            worst = max(worst, abs(drift + g[space.size + key]))
    return worst


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

def verify(result: EngineResult, n_paths: int, seed: int) -> dict:
    """Full oracle report against the solved surfaces."""
    cfg, model, portfolio = result.cfg, result.model, result.portfolio
    report: dict = {"n_paths": n_paths, "seed": seed, "checks": {}}
    ok = True

    est, se = mc_clean_value(cfg, model, portfolio, n_paths, seed)
    ode_v0 = result.clean.at0(result.space.root())
    clean_ok = abs(est - ode_v0) <= 3.0 * se + 1e-12
    report["checks"]["clean_value"] = {
        "mc": est, "se": se, "ode": ode_v0, "within_3se": clean_ok,
    }
    ok = ok and clean_ok

    if "actual" in result.xva and is_linear_driver(cfg, portfolio):
        mc_u, mc_se = mc_xva_closeout(result, n_paths, seed + 1)
        ode_u0 = result.xva["actual"].surface.at0(result.space.root())
        xva_ok = abs(mc_u - ode_u0) <= 3.0 * mc_se + 1e-12
        report["checks"]["xva_closeout"] = {
            "mc": mc_u, "se": mc_se, "ode": ode_u0, "within_3se": xva_ok,
        }
        ok = ok and xva_ok

    dominance_paths = min(n_paths, 10_000)
    if "upper" in result.xva and result.xva["upper"].pocket is not None:
        rep = pathwise_wealth_check(result, "upper", dominance_paths, seed + 2)
        dom_ok = rep.violations == 0
        report["checks"]["dominance"] = {
            "paths": rep.n_paths, "violations": rep.violations,
            "worst_margin": rep.worst_margin, "mean_surplus": rep.mean_surplus,
            "passed": dom_ok,
        }
        ok = ok and dom_ok
    if "lower" in result.xva and result.xva["lower"].pocket is not None:
        rep = pathwise_wealth_check(result, "lower", dominance_paths, seed + 3)
        sub_ok = rep.violations == 0
        report["checks"]["subreplication"] = {
            "paths": rep.n_paths, "violations": rep.violations,
            "worst_margin": rep.worst_margin, "mean_deficit": rep.mean_surplus,
            "passed": sub_ok,
        }
        ok = ok and sub_ok

    if "upper" in result.xva and resolve_true_h_c(cfg, model) is not None:
        err = drift_identity_error(result, "upper")
        drift_ok = err < 1e-9
        report["checks"]["drift_identity"] = {"max_error": err, "passed": drift_ok}
        ok = ok and drift_ok

    report["passed"] = ok
    return report
