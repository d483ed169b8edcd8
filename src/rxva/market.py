"""Static market data: rates, the counterparty rate band, contagion intensities,
portfolio contracts, and validation of the no-arbitrage assumption.

All rates are per annum and all times are in years.  Reference entities
are numbered from 1; ``grids.StateSpace`` encodes the default states.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

INVESTOR = "I"
COUNTERPARTY = "C"


class ConfigError(ValueError):
    """Raised when a configuration file or dictionary is malformed."""


# ---------------------------------------------------------------------------
# Market configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketConfig:
    """Rates and the counterparty account-rate uncertainty band.

    ``mu_C_true`` is optional and used only by the actual-rate solve and the
    Monte Carlo verifier.  It is either a float or the string ``"model"``,
    in which case the true rate is read off the contagion model as
    ``h_C(t, J) + r_D``.
    """

    r_D: float
    r_f_plus: float
    r_f_minus: float
    r_m_plus: float
    r_m_minus: float
    mu_C_lower: float
    mu_C_upper: float
    mu_C_true: float | str | None = None

    def __post_init__(self):
        if self.mu_C_lower > self.mu_C_upper:
            raise ConfigError(
                f"inverted counterparty band: lower {self.mu_C_lower} > "
                f"upper {self.mu_C_upper}"
            )
        if isinstance(self.mu_C_true, str) and self.mu_C_true != "model":
            raise ConfigError(f"mu_C_true must be a number or 'model', got {self.mu_C_true!r}")

    def counterparty_band_rates(self) -> tuple[float, float]:
        """Risk-neutral intensity band (lower, upper) = (mu - r_D) endpoints.

        Both endpoints are strictly positive for a validated configuration.
        """
        return (self.mu_C_lower - self.r_D, self.mu_C_upper - self.r_D)


# ---------------------------------------------------------------------------
# Contagion model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseTable:
    """Piecewise-constant intensity, keyed by (time piece, default count).

    ``breaks`` are the interior time breakpoints; piece ``p`` covers
    ``[breaks[p-1], breaks[p])`` with the convention that piece 0 starts at 0
    and the last piece is unbounded on the right.  ``values[p][k]`` is the
    intensity on piece ``p`` when ``k`` prior defaults are relevant (``|J|``
    for the trading parties, ``|J \\ {i}|`` for a surviving reference
    entity).  A row shorter than requested is clamped at its last entry.
    """

    breaks: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ConfigError(
                f"table needs {len(self.breaks) + 1} value rows, got {len(self.values)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ConfigError("table breakpoints must be strictly increasing")

    def at(self, t: float, count: int) -> float:
        row = self.values[bisect.bisect_right(self.breaks, t)]
        return row[min(count, len(row) - 1)]


def invert_hazard(edges: np.ndarray, h: np.ndarray, t0: np.ndarray, target) -> np.ndarray:
    """First time after each t0 at which the cumulated intensity reaches target.

    ``edges`` ends the pieces of [0, edges[-1]] and ``h[j]`` is the intensity
    on piece j; ``target`` is an array aligned with ``t0`` or one number.
    Crosses the pieces one at a time with the scalar recursion
    (``remaining -= h * span``, then ``prev + remaining / h``), so each time
    is bit-identical to a per-element loop; inf when the pieces up to the
    last edge hold less than the target.
    """
    last = len(edges) - 1
    out = np.full(len(t0), math.inf)
    rows = np.arange(len(t0))
    j = np.searchsorted(edges[:-1], t0, side="right")
    prev, remaining = t0, np.broadcast_to(target, t0.shape)
    while rows.size:
        edge, h_j = edges[j], h[j]
        mass = h_j * (edge - prev)
        hit = (h_j > 0.0) & (mass >= remaining)
        k = np.flatnonzero(hit)
        out[rows[k]] = prev[k] + remaining[k] / h_j[k]
        go = np.flatnonzero(~hit & (j < last))
        rows, j = rows[go], j[go] + 1
        prev, remaining = edge[go], (remaining - mass)[go]
    return out


def _number(value, where: str) -> float:
    """A config value as a finite float; ConfigError otherwise.

    Configs hold JSON numbers, so a string or a boolean is refused rather
    than coerced.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range: its size, not its digits
        n = abs(int(value))  # counted from its bit length: str() of a huge int raises
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1  # the count or one short
        digits += n >= 10 ** digits
        raise ConfigError(f"{where} must be finite, got an integer of {digits} digits") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _as_table(spec) -> PiecewiseTable:
    """Builds a PiecewiseTable from a config fragment.

    Accepts either a bare number (constant intensity), or a mapping with
    ``breaks`` and ``values`` where each value row is a number (no count
    dependence) or a list indexed by default count.
    """
    if isinstance(spec, (int, float)):
        return PiecewiseTable(breaks=(), values=((_number(spec, "intensity"),),))
    if not isinstance(spec, dict):
        raise ConfigError(f"an intensity table must be a number or a mapping, got {spec!r}")
    breaks = spec.get("breaks", [])
    values = _require(spec, "values", "intensity table")
    if not isinstance(breaks, list) or not isinstance(values, list):
        raise ConfigError("intensity table breaks and values must be lists")
    breaks = tuple(_number(b, "table break") for b in breaks)
    rows = []
    for row in values:
        if isinstance(row, (int, float)):
            rows.append((_number(row, "intensity"),))
        elif isinstance(row, list) and row:
            rows.append(tuple(_number(v, "intensity") for v in row))
        else:
            raise ConfigError(f"an intensity row must be a number or a nonempty list, got {row!r}")
    return PiecewiseTable(breaks=breaks, values=tuple(rows))


@dataclass(frozen=True)
class ContagionModel:
    """Interacting default intensities for references, investor and counterparty.

    Each intensity is a piecewise-constant table keyed by (time piece,
    default count): ``investor`` is h_I(t, J), ``counterparty`` h_C(t, J),
    and ``references`` holds one table shared by every reference entity or
    one per entity, each read at |J \\ {i}| for a surviving entity i.
    """

    n: int
    investor: PiecewiseTable
    counterparty: PiecewiseTable
    references: tuple[PiecewiseTable, ...]

    def __post_init__(self):
        if len(self.references) not in (1, self.n):
            raise ConfigError("references must hold one shared table or one per entity")

    def table(self, who) -> PiecewiseTable:
        """The intensity table of ``who``: a 1-based entity id, "I" or "C"."""
        if who == INVESTOR:
            return self.investor
        if who == COUNTERPARTY:
            return self.counterparty
        return self.references[0 if len(self.references) == 1 else int(who) - 1]

    def intensity_by_count(self, who, t: float, count: int) -> float:
        """Risk-neutral default intensity h_who(t, J) with ``count`` = |J|.

        Every intensity of the model depends on the defaulted set through its
        size (a surviving entity i has |J \\ {i}| == |J|).
        """
        return self.table(who).at(t, count)

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted time breakpoints of all piecewise-constant intensities."""
        tables = (self.investor, self.counterparty, *self.references)
        return tuple(sorted({b for table in tables for b in table.breaks}))

    def intensities(self, who, horizon: float) -> list[float]:
        """h_who on every time piece meeting [0, horizon], at every default count."""
        times = [0.0] + [b for b in self.breakpoints() if b < horizon]
        return [self.intensity_by_count(who, t, k) for t in times for k in range(self.n + 1)]

    def min_intensity(self, who, horizon: float) -> float:
        """Infimum of h_who over t in [0, horizon] and all default counts."""
        return min(self.intensities(who, horizon))


# ---------------------------------------------------------------------------
# Portfolio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """One CDS contract: spread per year, loss rate, direction.

    ``direction = +1`` is the canonical orientation used internally: the
    holder pays the running spread and receives the loss payment at the
    reference default.  ``direction = -1`` flips every cash flow.
    """

    spread: float
    loss: float
    direction: int = 1

    def __post_init__(self):
        if self.loss < 0.0:
            raise ConfigError(f"loss must be nonnegative, got {self.loss}")
        if self.direction not in (1, -1):
            raise ConfigError(f"direction must be +1 or -1, got {self.direction}")


@dataclass(frozen=True)
class CollateralSpec:
    """Collateralization parameters: VM ratio, IM stress factor, VaR level, delay."""

    alpha: float = 0.0
    beta: float = 0.0
    q: float = 0.99
    delta: float = 10.0 / 252.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class Portfolio:
    contracts: tuple[Contract, ...]
    maturity: float
    loss_investor: float
    loss_counterparty: float
    collateral: CollateralSpec = field(default_factory=CollateralSpec)

    def __post_init__(self):
        if self.maturity <= 0.0:
            raise ConfigError(f"maturity must be positive, got {self.maturity}")
        for name, val in (("L_I", self.loss_investor), ("L_C", self.loss_counterparty)):
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {val}")

    @property
    def n(self) -> int:
        return len(self.contracts)

    def flipped(self) -> "Portfolio":
        """Portfolio with every contract direction negated."""
        return Portfolio(
            contracts=tuple(
                Contract(c.spread, c.loss, -c.direction) for c in self.contracts
            ),
            maturity=self.maturity,
            loss_investor=self.loss_investor,
            loss_counterparty=self.loss_counterparty,
            collateral=self.collateral,
        )


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs < self.rhs


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[InequalityCheck]:
        return [c for c in self.checks if not c.passed]


class AssumptionError(RuntimeError):
    """Raised when pricing is attempted on a failed validation without override."""

    def __init__(self, report: ValidationReport):
        self.report = report
        names = ", ".join(c.name for c in report.failures())
        super().__init__(f"no-arbitrage assumption violated: {names}")


def validate_assumptions(
    cfg: MarketConfig, model: ContagionModel, horizon: float | None = None
) -> ValidationReport:
    """Checks the rate inequalities required for an arbitrage-free market.

    The account rate of each firm is mu = h + r_D, so the requirement
    max(r_D, r_f+) < min(mu_1..mu_N, mu_I, mu_C_lower) translates into
    strictly positive intensities plus upper bounds on the funding rates.
    For multi-name portfolios the comparison argument additionally needs
    r_f- below the same minimum.  The true counterparty rate must lie in the
    band; with ``mu_C_true = "model"`` that is h_C(t, J) + r_D on every time
    piece and at every default count.
    """
    horizon = horizon if horizon is not None else float("inf")
    mu_refs = [
        model.min_intensity(i, horizon) + cfg.r_D for i in range(1, model.n + 1)
    ]
    mu_i = model.min_intensity(INVESTOR, horizon) + cfg.r_D
    mu_min = min(mu_refs + [mu_i, cfg.mu_C_lower])
    checks = [
        InequalityCheck("r_D < min(mu_1..mu_N, mu_I, mu_C_lower)", cfg.r_D, mu_min),
        InequalityCheck("r_f_plus < min(mu_1..mu_N, mu_I, mu_C_lower)", cfg.r_f_plus, mu_min),
        InequalityCheck("r_D < mu_C_lower", cfg.r_D, cfg.mu_C_lower),
    ]
    if model.n > 1:
        checks.append(
            InequalityCheck(
                "r_f_minus < min(mu_1..mu_N, mu_I, mu_C_lower)", cfg.r_f_minus, mu_min
            )
        )
    if cfg.mu_C_true is not None:
        if cfg.mu_C_true == "model":
            mu_true = [h + cfg.r_D for h in model.intensities(COUNTERPARTY, horizon)]
        else:
            mu_true = [cfg.mu_C_true]
        checks.append(InequalityCheck(
            "mu_C_lower <= mu_C_true", cfg.mu_C_lower - 1e-15, min(mu_true) + 1e-15
        ))
        checks.append(InequalityCheck(
            "mu_C_true <= mu_C_upper", max(mu_true) - 1e-15, cfg.mu_C_upper + 1e-15
        ))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------

def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _required_number(d: dict, key: str, where: str) -> float:
    return _number(_require(d, key, where), f"{where}.{key}")


def _object(value, where: str) -> dict:
    """A config block that the schema expects as a JSON object; ConfigError otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _contract(c) -> Contract:
    c = _object(c, "contract")
    direction = _number(c.get("direction", 1), "contract.direction")
    if direction not in (1.0, -1.0):
        raise ConfigError(f"contract.direction must be +1 or -1, got {direction!r}")
    return Contract(
        spread=_required_number(c, "spread", "contract"),
        loss=_required_number(c, "loss", "contract"),
        direction=int(direction),
    )


def market_from_dict(doc: dict) -> tuple[MarketConfig, ContagionModel, Portfolio, ContagionModel]:
    """Parses a configuration document.

    Returns (market config, risk-neutral contagion model, portfolio,
    physical contagion model).  The physical model defaults to the
    risk-neutral one when no ``physical_contagion`` block is present.
    """
    rates = _object(_require(doc, "rates", "config"), "rates")
    band = _object(_require(doc, "counterparty_band", "config"), "counterparty_band")
    pf = _object(_require(doc, "portfolio", "config"), "portfolio")
    contracts = _require(pf, "contracts", "portfolio")
    if not isinstance(contracts, list):
        raise ConfigError(f"portfolio.contracts must be a list, got {contracts!r}")
    coll = _object(pf.get("collateral", {}), "collateral")
    portfolio = Portfolio(
        contracts=tuple(_contract(c) for c in contracts),
        maturity=_required_number(pf, "maturity", "portfolio"),
        loss_investor=_required_number(pf, "L_I", "portfolio"),
        loss_counterparty=_required_number(pf, "L_C", "portfolio"),
        collateral=CollateralSpec(**{key: _number(coll[key], f"collateral.{key}")
                                     for key in ("alpha", "beta", "q", "delta") if key in coll}),
    )
    mu_true = band.get("mu_true")
    if mu_true is not None and not isinstance(mu_true, str):
        mu_true = _number(mu_true, "counterparty_band.mu_true")
    cfg = MarketConfig(
        r_D=_required_number(rates, "r_D", "rates"),
        r_f_plus=_required_number(rates, "r_f_plus", "rates"),
        r_f_minus=_required_number(rates, "r_f_minus", "rates"),
        r_m_plus=_required_number(rates, "r_m_plus", "rates"),
        r_m_minus=_required_number(rates, "r_m_minus", "rates"),
        mu_C_lower=_required_number(band, "mu_lower", "counterparty_band"),
        mu_C_upper=_required_number(band, "mu_upper", "counterparty_band"),
        mu_C_true=mu_true,
    )
    model = contagion_from_dict(_require(doc, "contagion", "config"), portfolio.n)
    phys_doc = doc.get("physical_contagion")
    if phys_doc in (None, {}):
        return cfg, model, portfolio, model
    return cfg, model, portfolio, contagion_from_dict(phys_doc, portfolio.n, "physical_contagion")


def contagion_from_dict(doc: dict, n: int, where: str = "contagion") -> ContagionModel:
    """Parses the contagion block ``where`` for ``n`` reference entities.

    The affine pair of a party, (a10, a13) for the investor, (a20, a23) for
    the counterparty and (a30, a33) for the references, is shorthand for the
    one-row table a + b * k at every default count k = 0..n; an absent
    parameter is 0.  A table the block gives replaces the party's pair.
    """
    doc = _object(doc, where)
    affine = {p: _number(doc.get(p, 0.0), f"{where}.{p}")
              for p in ("a10", "a13", "a20", "a23", "a30", "a33")}

    def table(key: str, a: str, b: str) -> PiecewiseTable:
        if key in doc:
            return _as_table(doc[key])
        a, b = affine[a], affine[b]
        return PiecewiseTable(breaks=(), values=(tuple(a + b * k for k in range(n + 1)),))

    if "reference_tables" in doc:
        specs = doc["reference_tables"]
        references = tuple(_as_table(s) for s in (specs if isinstance(specs, list) else [specs]))
    else:
        references = (table("reference_table", "a30", "a33"),)
    return ContagionModel(
        n=n,
        investor=table("investor_table", "a10", "a13"),
        counterparty=table("counterparty_table", "a20", "a23"),
        references=references,
    )


def read_config(path) -> dict:
    """Reads a JSON configuration document; see the README for the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and an integer of too many digits;
    # RecursionError, JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    return doc


def load_config(path) -> tuple[MarketConfig, ContagionModel, Portfolio, ContagionModel]:
    """Reads and parses a JSON configuration file."""
    return market_from_dict(read_config(path))
