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

import math
from dataclasses import dataclass

import numpy as np

from .collateral import closeout_excess
from .engine import EngineResult
from .market import ConfigError, ContagionModel, MarketConfig, Portfolio, cut, invert_hazard
from .strategies import robust_strategy, wealth_drift
from .xva import _layout, lattice_coefficients, resolve_true_h_c


# ---------------------------------------------------------------------------
# Exact default-time sampling
# ---------------------------------------------------------------------------

PARTY_NONE, PARTY_I, PARTY_C = 0, 1, 2

# Paths per block: the estimators work through their paths in blocks of this
# many, so that only the PathBatch and the per-path values grow with the
# path count.
BLOCK = 8192

# Most paths times (names + 1) the oracle samples: its memory is gated at 21
# bytes per path and name (tests/test_oracle.py), so under 0.7 GiB here.
MAX_PATH_SLOTS = 32_000_000


@dataclass
class PathBatch:
    """Sampled scenarios in columns, one row per path.

    ``event_time[p, r]`` and ``event_entity[p, r]`` are the time and the
    1-based entity of the r-th reference default of path p (inf and 0 past
    its last), the entity in the narrowest unsigned type for the name
    count: a byte up to 255 names.  ``party[p]`` is PARTY_I or PARTY_C when
    a trading party defaulted before T, else PARTY_NONE, and
    ``party_time[p]`` is its default time (inf for PARTY_NONE).
    """

    event_time: np.ndarray
    event_entity: np.ndarray
    party: np.ndarray
    party_time: np.ndarray

    def __len__(self) -> int:
        return len(self.party)

    def __getitem__(self, rows: slice) -> PathBatch:
        """The paths ``rows``, as views of these columns."""
        return PathBatch(**{name: column[rows] for name, column in vars(self).items()})

    def default_times(self) -> np.ndarray:
        """(paths, entities) default time of each entity, inf when it survived."""
        n_paths, n = self.event_time.shape
        out = np.full((n_paths, n), math.inf)
        rows, rounds = np.nonzero(self.event_entity)
        out[rows, self.event_entity[rows, rounds] - 1] = self.event_time[rows, rounds]
        return out


class _Clocks:
    """Competing default clocks of one portfolio, tabulated per piece of [0, T].

    Clock c < n is reference entity c + 1; with parties, clocks n and n + 1
    are the investor and the counterparty.  ``pieces`` is [0, T] cut at
    the model's breaks by ``market.cut``.  ``h[c, k, j]`` is the intensity
    of clock c with k prior reference defaults on piece j, read at its
    start by ``PiecewiseTable.rates``: the pieces are right-continuous.
    A clock's default time is ``market.invert_hazard`` of its row, the
    inversion of a cumulated hazard that the initial margin uses too; only
    ``_mc_clean_single_stratified`` inverts its hazard with ``np.interp``.
    """

    def __init__(self, model, portfolio, include_parties, h_C_true):
        n, T = portfolio.n, portfolio.maturity
        self.n, self.T = n, T
        self.pieces = cut(model.breakpoints(), T)
        tables = [model.table(i) for i in range(1, n + 1)]
        if include_parties:
            tables += [model.investor, h_C_true if h_C_true is not None else model.counterparty]
        self.h = np.array([tab.rates(self.pieces[:-1], np.arange(n + 1)).T for tab in tables])


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
    unless a reference name defaults first before T.  Each round runs in
    blocks of at most ``BLOCK`` paths, and drawing the rows block by block
    gives the same stream as one draw of them all.
    """
    rng = np.random.default_rng(seed)
    clocks = _Clocks(model, portfolio, include_parties, h_C_true)
    n = clocks.n
    batch = PathBatch(
        event_time=np.full((n_paths, n), math.inf),
        event_entity=np.zeros((n_paths, n), dtype=np.min_scalar_type(n)),
        party=np.zeros(n_paths, dtype=np.int8),
        party_time=np.full(n_paths, math.inf),
    )
    live = np.arange(n_paths, dtype=np.int32)  # MAX_PATH_SLOTS fits, in half the bytes
    for r in range(n + 1):  # every live path has r reference defaults
        if not live.size:
            break
        live = np.concatenate([_round(batch, clocks, rng, r, live[s:s + BLOCK])
                               for s in range(0, live.size, BLOCK)])
    return batch


def _round(batch: PathBatch, clocks: _Clocks, rng, r: int, rows: np.ndarray) -> np.ndarray:
    """Round r of the running paths ``rows``: records how each ends the round
    and returns those a reference default keeps running."""
    n = clocks.n
    draws = rng.exponential(size=(rows.size, len(clocks.h)))
    t0 = batch.event_time[rows, r - 1] if r else np.zeros(rows.size)
    alive = np.ones((rows.size, n), dtype=bool)
    alive[np.arange(rows.size)[:, None], batch.event_entity[rows, :r] - 1] = False
    best_t = np.full(rows.size, math.inf)
    best = np.full(rows.size, -1)
    for c in range(len(clocks.h)):
        sel = np.flatnonzero(alive[:, c]) if r and c < n else slice(None)  # round 0: all alive
        cand = invert_hazard(clocks.pieces[1:], clocks.h[c, r], t0[sel], draws[sel, c])
        win = cand < best_t[sel]
        best_t[sel] = np.where(win, cand, best_t[sel])
        best[sel] = np.where(win, c, best[sel])
    fired = best_t < clocks.T  # no clock firing leaves best_t inf
    party = np.flatnonzero(fired & (best >= n))
    batch.party[rows[party]] = best[party] - n + 1
    batch.party_time[rows[party]] = best_t[party]
    ref = np.flatnonzero(fired & (best < n))
    rows = rows[ref]
    if rows.size:  # none in the last round, which has no column
        batch.event_time[rows, r] = best_t[ref]
        batch.event_entity[rows, r] = best[ref] + 1
    return rows


# ---------------------------------------------------------------------------
# Clean value
# ---------------------------------------------------------------------------

def _cash_flow(r_D: float, con, tau, T: float) -> np.ndarray:
    """Discounted cash flow of one contract for default times ``tau``.

    The spread is paid up to min(tau, T) and the loss at tau <= T; an inf
    default time means the name survived.
    """
    stop = np.minimum(tau, T)  # finite, so r_D = 0 never meets inf
    annuity = stop if r_D == 0.0 else -np.expm1(-r_D * stop) / r_D
    loss = np.where(tau <= T, con.loss * np.exp(-r_D * stop), 0.0)
    return con.direction * (-con.spread * annuity + loss)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``vals`` and its standard error."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


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
    vals = np.empty(n_paths)
    for s in range(0, n_paths, BLOCK):
        taus = paths[s:s + BLOCK].default_times().T
        vals[s:s + BLOCK] = sum(_cash_flow(cfg.r_D, con, tau, portfolio.maturity)
                                for con, tau in zip(portfolio.contracts, taus))
    return _mean_se(vals)


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
    clocks = _Clocks(model, portfolio, False, None)
    edges = clocks.pieces
    cum = np.concatenate([[0.0], np.cumsum(clocks.h[0, 0] * np.diff(edges))])
    p_default = -math.expm1(-cum[-1])  # P(tau <= T)
    survival_flow = float(_cash_flow(cfg.r_D, con, math.inf, T))
    if p_default == 0.0:
        return survival_flow, 0.0
    n_strata = max(1, n_paths // 2)
    flows = np.empty((n_strata, 2))
    half_var = np.empty(n_strata)  # each stratum's variance estimate over its two draws
    for s in range(0, n_strata, BLOCK):
        e = min(s + BLOCK, n_strata)
        u = p_default * (np.arange(s, e)[:, None] + rng.random((e - s, 2))) / n_strata
        flow = flows[s:e] = _cash_flow(cfg.r_D, con, np.interp(-np.log1p(-u), cum, edges), T)
        half_var[s:e] = 0.5 * (flow[:, 0] - flow[:, 1]) ** 2 / 2.0
    est = (1.0 - p_default) * survival_flow + p_default * float(np.mean(flows))
    se = p_default * float(math.sqrt(np.sum(half_var)) / n_strata)
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
    entity = np.where(paths.event_time[rows] < times[:, None], paths.event_entity[rows], 0)
    return result.space.child(0, entity).sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")  # a slope that overflows is inf, as in np.interp
def _at(grid: np.ndarray, surfaces, keys: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """``np.interp(t, grid, surface[key])`` of each (states x nodes) surface on
    ``grid`` for paired arrays of keys and times, bit for bit.

    With the grid cut into ``len(grid) - 1`` equal buckets, a time starts from
    the last node of the buckets below its own (bucket indices never decrease,
    so that node is below it), steps up to its cell and reads it with
    np.interp's arithmetic.  A finite surface never reaches its NaN fallback.
    """
    t, width = np.clip(times, grid[0], grid[-1]), (grid[-1] - grid[0]) / (len(grid) - 1)
    ends = np.cumsum(np.bincount(((grid - grid[0]) / width).astype(np.intp))) - 1
    c = np.concatenate(([0], ends)).take(((t - grid[0]) / width).astype(np.intp))
    above = np.append(grid[1:-1], math.inf)  # the right node of each cell; the last one holds T
    while (up := above.take(c) <= t).any():
        c += up
    i, lo_t, hi_t = keys * len(grid) + c, grid.take(c), grid.take(c + 1)
    span, dt = hi_t - lo_t, times - lo_t
    reads = ((s.take(i), s.take(i + 1)) for s in surfaces)  # a surface at a time
    return [np.where(t == lo_t, lo, np.where(t == hi_t, hi, (hi - lo) / span * dt + lo))
            for lo, hi in reads]


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
    vals = np.zeros(n_paths)
    for s in range(0, n_paths, BLOCK):
        block = paths[s:s + BLOCK]
        rows = np.flatnonzero(block.party)
        tau = block.party_time[rows]
        keys = _state_keys(result, block, rows, tau)
        theta_I, theta_C = closeout_excess(
            *_at(result.grid, (result.clean, result.margins.m), keys, tau),
            portfolio.loss_investor, portfolio.loss_counterparty,
        )
        payoff = np.where(block.party[rows] == PARTY_I, theta_I, theta_C)
        vals[s + rows] = np.exp(-cfg.r_D * tau) * payoff
    return _mean_se(vals)


# ---------------------------------------------------------------------------
# Pathwise wealth of the robust / lower strategies
# ---------------------------------------------------------------------------

WEALTH_TOLERANCE = 1e-8  # a surplus below minus this violates dominance


def pathwise_wealth_check(result: EngineResult, which: str, n_paths: int, seed: int) -> dict:
    """Pathwise dominance audit of the robust (or lower) strategy, as its
    ``verify`` entry.

    The strategy holds the prescribed positions at all times; their value
    follows the corresponding XVA surface, is continuous across reference
    defaults, and settles into the closeout value at the first trading-party
    default.  The wealth in excess of the surface accrues in a cash pocket at
    the surplus rate integrated in the pocket surface, so terminal wealth
    equals the rXVA payoff plus the accumulated pocket.  Dominance requires
    the pocket to stay nonnegative for the upper strategy (nonpositive for
    the lower one).  The entry gives the path count, the paths whose surplus
    is below minus WEALTH_TOLERANCE, the worst surplus, the mean surplus
    (``mean_surplus`` for the upper strategy, ``mean_deficit`` for the
    lower) and whether no path violated.
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
    grid, surfaces = result.grid, (xres.pocket,)
    end = np.where(paths.party == PARTY_NONE, result.portfolio.maturity, paths.party_time)
    pocket = np.zeros(n_paths)
    key = np.zeros(n_paths, dtype=np.int64)
    t_prev = np.zeros(n_paths)
    rows = np.arange(n_paths)
    for r in range(result.portfolio.n):
        t_ev = paths.event_time[rows, r]
        keep = np.flatnonzero(t_ev < end[rows])  # events before the path's end; padding is inf
        rows, t_ev = rows[keep], t_ev[keep]
        k = key[rows]
        pocket[rows] += _at(grid, surfaces, k, t_prev[rows])[0] - _at(grid, surfaces, k, t_ev)[0]
        key[rows] = result.space.child(k, paths.event_entity[rows, r])
        t_prev[rows] = t_ev
    pocket += _at(grid, surfaces, key, t_prev)[0] - _at(grid, surfaces, key, end)[0]
    surplus = (1.0 if which == "upper" else -1.0) * pocket
    violations = int(np.count_nonzero(surplus < -WEALTH_TOLERANCE))
    return {"paths": n_paths, "violations": violations, "worst_margin": float(surplus.min()),
            "mean_surplus" if which == "upper" else "mean_deficit": float(surplus.mean()),
            "passed": violations == 0}


# ---------------------------------------------------------------------------
# Wealth drift identity
# ---------------------------------------------------------------------------

DRIFT_STRIDE = 50  # the drift identity samples every 50th grid node


def drift_identity_error(result: EngineResult, which: str = "upper") -> float:
    """Max deviation between position-implied drift and the XVA drift.

    At every sampled node and state, the wealth drift of the ``which``
    holdings under the true counterparty rate must equal minus the reduced
    driver under that rate: the pass's own step (``result.bind``), run on
    the node's column of the pass's array (``result.solution``) as one
    stage of weight 1 from a base of -0.0, gives the ``which`` block's slope
    less its pocket's surplus rate (``actual`` has the true rate and no
    pocket).  One call each gives every node's holdings and their drift.
    """
    cfg, model, portfolio = result.cfg, result.model, result.portfolio
    h_true = resolve_true_h_c(cfg, model)
    if h_true is None:
        raise ValueError("the drift identity requires mu_C_true")
    space, grid, margins, size = result.space, result.grid, result.margins, result.space.size
    b, p = {name: (b, p) for name, b, p in _layout(cfg, tuple(result.xva))[0]}[which]
    surface = result.xva[which].surface
    nodes = np.arange(0, len(grid), DRIFT_STRIDE)
    times = grid[nodes]
    index, bundles = lattice_coefficients(cfg, model, portfolio, space, times)
    steps = [result.bind(states) for states in bundles]
    base = [-0.0] * len(result.solution)
    counts = space.count(np.arange(size))
    # account rates h + r_D at every sampled node and state: the investor's, then each name's
    mu = np.stack([model.table(who).rates(times, counts)
                   for who in ("I", *range(1, portfolio.n + 1))], axis=2) + cfg.r_D
    mu_true = h_true.rates(times, counts) + cfg.r_D
    holdings = robust_strategy(space, surface, result.clean, margins.m, portfolio, nodes)
    drift = wealth_drift(cfg, portfolio, holdings, mu, mu_true)
    for i, j in enumerate(nodes):
        im = margins.im[:, j].tolist()
        y = result.solution[:, j].tolist()
        g = np.reshape(steps[index[i]](im, im, ((0.0, 1.0, None),), 1.0, y, base), (-1, size))
        drift[i] += g[b] - (0.0 if p is None else g[p])
    return float(np.abs(drift).max())


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

def _within_3se(estimate: tuple[float, float], ode) -> dict:
    """The entry of a Monte Carlo ``(mean, se)`` checked against the ODE's root value."""
    mc, se = estimate
    ode = float(ode)
    return {"mc": mc, "se": se, "ode": ode, "within_3se": abs(mc - ode) <= 3.0 * se + 1e-12}


@np.errstate(over="ignore", invalid="ignore")  # a non-finite number is refused instead
def verify(result: EngineResult, n_paths: int, seed: int) -> dict:
    """Full oracle report against the solved surfaces; ConfigError if a number is not finite.

    With mu_C_true set, every upper or lower result gets the pathwise wealth
    check, so one without its pocket surface is a ValueError, not a report
    with fewer checks.
    """
    cfg, model, portfolio = result.cfg, result.model, result.portfolio
    checks: dict = {}
    report: dict = {"n_paths": n_paths, "seed": seed, "checks": checks}

    root = result.space.root()
    checks["clean_value"] = _within_3se(mc_clean_value(cfg, model, portfolio, n_paths, seed),
                                        result.clean[root, 0])

    if "actual" in result.xva and is_linear_driver(cfg, portfolio):
        checks["xva_closeout"] = _within_3se(mc_xva_closeout(result, n_paths, seed + 1),
                                             result.xva["actual"].surface[root, 0])

    for which, name, offset in (("upper", "dominance", 2), ("lower", "subreplication", 3)):
        if which in result.xva and cfg.mu_C_true is not None:
            checks[name] = pathwise_wealth_check(result, which, min(n_paths, 10_000),
                                                 seed + offset)

    if "upper" in result.xva and cfg.mu_C_true is not None:
        err = drift_identity_error(result, "upper")
        checks["drift_identity"] = {"max_error": err, "passed": err < 1e-9}

    for name, check in checks.items():
        for key, value in check.items():
            if not math.isfinite(value):
                raise ConfigError(f"the {name} check is not finite: {key} = {value}")
    report["passed"] = all(c.get("passed", c.get("within_3se")) for c in checks.values())
    return report
