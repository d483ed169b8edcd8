"""Traced in-process run of one CLI invocation, for the per-layer metrics.

Run as ``python -X importtime perfbench/trace_child.py <result.json> <cli
args...>`` with ``src`` on ``PYTHONPATH``. It imports ``rxva.cli`` first, so
the import-time log attributes the CLI's imports as a plain CLI start would,
then wraps the public functions of each module in the namespace where the
caller looks them up, runs ``rxva.cli.main`` and writes the spans, the counts
and the exit code to ``<result.json>``. Nothing under ``src/`` is changed.
"""

import time

STARTED = time.monotonic()

import rxva.cli  # first, so the import-time log sees the CLI's own imports

import functools
import json
import sys
from pathlib import Path

import numpy as np

import rxva.engine
import rxva.oracle
import rxva.sweeps


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def run(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.monotonic(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self.stack.pop()

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replaces ``module.attr`` by a traced wrapper.

        ``name`` is a span name or a function of the call arguments giving
        one; ``after(result, *args, **kwargs)`` records counts once the span
        has closed.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = self.run(label, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)


def lattice_edges(space) -> int:
    """One-default transitions of the lattice: n per chain, n 2^(n-1) in full."""
    if space.homogeneous:
        return space.n
    return space.n << (space.n - 1) if space.n else 0


def install(tracer: Tracer) -> None:
    cli, engine, oracle, sweeps = rxva.cli, rxva.engine, rxva.oracle, rxva.sweeps

    def on_space(space, *_a, **_k):
        tracer.counts["grids.states"] = max(tracer.counts.get("grids.states", 0), space.size)

    def on_grid(grid, *_a, **_k):
        tracer.counts["grids.nodes"] = max(tracer.counts.get("grids.nodes", 0), len(grid))

    def updates(grid, space) -> int:
        return lattice_edges(space) * 4 * (len(grid) - 1)

    def on_clean(_surface, cfg, model, portfolio, grid, space):
        tracer.add("clean.edge_updates", updates(grid, space))

    def on_xva(result, cfg, model, portfolio, grid, space, margins, which):
        tracer.add("xva.edge_updates", updates(grid, space))
        if which == "upper":
            root = np.asarray(result.regime[space.root()])
            tracer.add("xva.regime_switches.upper", int(np.count_nonzero(np.diff(root))))

    def on_paths(_paths, model, portfolio, n_paths, *_a, **_k):
        tracer.add("oracle.paths", n_paths)

    def on_verify(report, *_a, **_k):
        failed = sum(
            1 for check in report["checks"].values()
            if check.get("passed", check.get("within_3se")) is not True
        )
        tracer.add("oracle.checks_failed", failed)

    def on_strategy(*_a, **_k):
        tracer.add("strategies.robust_strategy_calls", 1)

    def on_sweep(result, *_a, **_k):
        tracer.add("sweeps.points", len(result.rows))
        tracer.add("sweeps.points_failed", sum(1 for row in result.rows if not row.ok))

    def on_write(_none, path, *_a, **_k):
        path = Path(path)
        if path.name == "manifest.json" or not path.exists():
            return  # the manifest's wall-clock field varies in length
        data = path.read_bytes()
        tracer.add("reporting.bytes", len(data))
        if path.suffix == ".csv":
            tracer.add("reporting.rows", max(data.count(b"\n") - 1, 0))

    tracer.wrap(engine, "validate_assumptions", "market.validate_assumptions")
    tracer.wrap(engine, "choose_state_space", "grids.choose_state_space", on_space)
    tracer.wrap(engine, "build_grid", "grids.build_grid", on_grid)
    tracer.wrap(engine, "solve_clean", "clean.solve_clean", on_clean)
    tracer.wrap(engine, "margin_schedule", "collateral.margin_schedule")
    tracer.wrap(engine, "solve_xva", lambda *a, **k: f"xva.solve_xva.{a[6]}", on_xva)
    for module in (cli, sweeps):
        tracer.wrap(module, "run_engine", "engine.run_engine")
    tracer.wrap(cli, "load_config", "market.load_config")
    tracer.wrap(sweeps, "market_from_dict", "market.market_from_dict")
    tracer.wrap(cli, "verify", "oracle.verify", on_verify)
    tracer.wrap(cli, "run_sweep", "sweeps.run_sweep", on_sweep)
    for fn in ("simulate_paths", "mc_clean_value", "mc_xva_closeout",
               "pathwise_wealth_check", "drift_identity_error"):
        tracer.wrap(oracle, fn, f"oracle.{fn}", on_paths if fn == "simulate_paths" else None)
    for module in (oracle, sweeps):
        tracer.wrap(module, "robust_strategy", "strategies.robust_strategy", on_strategy)
    tracer.wrap(oracle, "wealth_drift", "strategies.wealth_drift")
    for fn in ("write_clean_csv", "write_margin_csv", "write_xva_csv",
               "write_regime_csv", "write_sweep_csv", "write_json"):
        tracer.wrap(cli, fn, f"reporting.{fn}", on_write)


def main() -> int:
    result_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    rc = tracer.run("cli.main", rxva.cli.main, argv)
    result_path.write_text(json.dumps({
        "rc": rc,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "started": STARTED,
        "finished": time.monotonic(),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
