"""rxva benchmark: end-to-end and per-layer metrics for two CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {audit,sweep} --seed N \\
        --seconds S --trace {0,1}

The benchmark drives the CLI (``python -m rxva.cli`` with ``src`` on
``PYTHONPATH``) as a user would: one single-process run at a time in a closed
loop, with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1`` in the child. Every
run's outputs are checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: spawn to exit of the subcommand, median over the runs that fit
  in ``--seconds`` (at least three);
* ``setup_s``: spawn to exit of a process that imports ``rxva.cli`` and loads
  and validates the workload config, median over one probe before each run
  (at least five), after one warm-up probe;
* ``peak_rss_mb``: peak resident memory of the subcommand's process
  (``wait4`` rusage), median over the runs.

``--trace 1`` reports the per-layer metrics: three untraced runs, one traced
in-process run (``trace_child.py``, under ``-X importtime``) and the AC-08
timing ratio (``ac08_child.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the share of failed
runs is ``failed / attempted``. The line before it records the environment.
``--toy`` shrinks every problem for the harness smoke test and skips the
comparison with reference values.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    FIVE_NAME, FULL, ROOT, SINGLE_NAME, SRC, TOY, WORKLOADS,
    Invocation, check, load_references, prepare,
)

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_PROBES = 5
MIN_SAMPLES = 3
TRACE_BASELINE_SAMPLES = 3
AC08_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.numpy_s": "s",
    "market.load_config_s": "s",
    "market.validate_assumptions_s": "s",
    "grids.build_grid_s": "s",
    "grids.states": "count",
    "grids.nodes": "count",
    "clean.solve_clean_s": "s",
    "xva.solve_xva_s.actual": "s",
    "xva.solve_xva_s.upper": "s",
    "xva.solve_xva_s.lower": "s",
    "clean.edge_updates": "count",
    "xva.edge_updates": "count",
    "xva.edge_updates_per_s": "1/s",
    "xva.regime_switches.upper": "count",
    "collateral.margin_schedule_s": "s",
    "engine.run_engine_s": "s",
    "engine.self_s": "s",
    "engine.full_over_homo_ratio": "ratio",
    "engine.full_over_homo_ratio_spread": "ratio",
    "oracle.simulate_paths_s": "s",
    "oracle.paths": "count",
    "oracle.paths_per_s": "1/s",
    "oracle.mc_clean_value_s": "s",
    "oracle.mc_xva_closeout_s": "s",
    "oracle.pathwise_wealth_check_s": "s",
    "oracle.drift_identity_error_s": "s",
    "oracle.checks_failed": "count",
    "strategies.robust_strategy_s": "s",
    "strategies.robust_strategy_calls": "count",
    "sweeps.points": "count",
    "sweeps.points_failed": "count",
    "sweeps.s_per_point": "s",
    "reporting.write_s": "s",
    "reporting.rows": "count",
    "reporting.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.accounted_within_overhead": "count",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Spawned:
    started: float  # time.monotonic(), which child processes share on Linux
    ended: float
    rc: int
    peak_rss_mb: float

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def spawn(cmd: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> Spawned:
    """Runs ``cmd`` to completion; times it from spawn to exit."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(started, ended, proc.returncode, usage.ru_maxrss / 1024.0)


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class Bench:
    def __init__(self, inv: Invocation, work: Path, references: dict | None, sizes):
        self.inv = inv
        self.work = work
        self.references = references
        self.sizes = sizes
        self.tally = Tally()
        self.runs = 0

    def fresh_dir(self) -> Path:
        self.runs += 1
        path = self.work / f"out{self.runs}"
        path.mkdir()
        return path

    def sample(self) -> Spawned:
        """One untraced CLI run, checked."""
        out = self.fresh_dir()
        with open(self.work / "stderr.txt", "wb") as err:
            run = spawn([sys.executable, "-m", "rxva.cli", *self.inv.argv(out)], stderr=err)
        problems = [f"exit code {run.rc}"] if run.rc else check(self.inv, out, self.references)
        self.tally.record(f"run {self.runs}", problems)
        shutil.rmtree(out)
        return run

    def setup_probe(self) -> Spawned:
        probe = spawn([sys.executable, str(HERE / "setup_probe.py"), str(self.inv.config)])
        self.tally.record("setup probe", [f"exit code {probe.rc}"] if probe.rc else [])
        return probe

    def end_to_end(self, seconds: float) -> dict:
        """Alternates set-up probes and runs until the next pair would end
        after ``seconds``, so both sample the machine across the whole run."""
        self.setup_probe()  # warm-up: byte-code and page caches
        setup: list[float] = []
        runs: list[Spawned] = []
        start = time.monotonic()
        while True:
            setup.append(self.setup_probe().seconds)
            runs.append(self.sample())
            elapsed = time.monotonic() - start
            if len(runs) >= MIN_SAMPLES and elapsed + setup[-1] + runs[-1].seconds > seconds:
                break
        while len(setup) < SETUP_PROBES:
            setup.append(self.setup_probe().seconds)
        walls = [r.seconds for r in runs]
        summary(f"wall_s over {len(walls)} runs", walls)
        summary(f"setup_s over {len(setup)} probes", setup)
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }

    def per_layer(self) -> dict:
        walls = [self.sample().seconds for _ in range(TRACE_BASELINE_SAMPLES)]
        baseline = statistics.median(walls)
        summary(f"untraced wall_s over {len(walls)} runs", walls)

        out = self.fresh_dir()
        result_path = self.work / "trace.json"
        log_path = self.work / "importtime.txt"
        with open(log_path, "wb") as log:
            traced = spawn([sys.executable, "-X", "importtime", str(HERE / "trace_child.py"),
                            str(result_path), *self.inv.argv(out)], stderr=log)
        problems = [f"exit code {traced.rc}"] if traced.rc else []
        trace = json.loads(result_path.read_text(encoding="utf-8")) if not traced.rc else {}
        if trace.get("rc", 0):
            problems.append(f"rxva.cli.main returned {trace['rc']}")
        if not problems:
            problems = check(self.inv, out, self.references)
        self.tally.record("traced run", problems)
        shutil.rmtree(out)

        ratios = self.ac08_ratios()
        metrics, accounted = layer_metrics(
            trace, import_times(log_path.read_text(encoding="utf-8")))
        interpreter = ((trace["started"] - traced.started) + (traced.ended - trace["finished"])
                       if trace else 0.0)
        overhead = traced.seconds - baseline
        unaccounted = traced.seconds - interpreter - accounted
        metrics.update({
            "cli.interpreter_s": interpreter,
            "engine.full_over_homo_ratio": statistics.median(ratios) if ratios else 0.0,
            "engine.full_over_homo_ratio_spread": max(ratios) - min(ratios) if ratios else 0.0,
            "trace.wall_s": traced.seconds,
            "trace.overhead_s": overhead,
            "trace.unaccounted_s": unaccounted,
            "trace.accounted_within_overhead": int(unaccounted <= abs(overhead)),
        })
        if ratios:
            summary(f"AC-08 ratio over {len(ratios)} repeats", ratios)
        return metrics

    def ac08_ratios(self) -> list[float]:
        cmd = [sys.executable, str(HERE / "ac08_child.py"), str(AC08_REPEATS),
               str(self.sizes.ac08_grid_points), str(FIVE_NAME)]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, check=False)
        self.tally.record("AC-08 ratio", [f"exit code {proc.returncode}"] if proc.returncode else [])
        return json.loads(proc.stdout) if proc.returncode == 0 else []


def import_times(log: str) -> dict:
    """Cumulative import seconds from an ``-X importtime`` log.

    ``rxva`` sums the top-level entries of the package; ``scipy`` and
    ``numpy`` sum the entries of each library not nested in another entry of
    the same library (numpy modules first imported by scipy count as scipy).
    """
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|", 2)
        raw = raw[1:]
        name = raw.lstrip(" ")
        entries.append(((len(raw) - len(name)) // 2, name, int(cumulative) / 1e6))
    totals = {"rxva": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[str] = []
    for depth, name, seconds in reversed(entries):  # a parent precedes its children
        del stack[depth:]
        lib = name.split(".")[0]
        if lib in totals and not any(a.split(".")[0] in (lib, "scipy") for a in stack):
            if lib != "rxva" or depth == 0:
                totals[lib] += seconds
        stack.append(name)
    return totals


def layer_metrics(trace: dict, imports: dict) -> tuple[dict, float]:
    """Per-layer metrics from the traced run, and the seconds its import and
    spans account for."""
    spans = trace.get("spans", [])
    counts = trace.get("counts", {})
    total: dict[str, float] = {}
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            covered[parent] += end - start
    self_time: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child

    def t(name: str) -> float:
        return total.get(name, 0.0)

    xva_s = sum(t(f"xva.solve_xva.{w}") for w in ("actual", "upper", "lower"))
    points = counts.get("sweeps.points", 0)
    metrics = {
        "cli.import_s": imports["rxva"],
        "cli.import.scipy_s": imports["scipy"],
        "cli.import.numpy_s": imports["numpy"],
        "market.load_config_s": t("market.load_config"),
        "market.validate_assumptions_s": t("market.validate_assumptions"),
        "grids.build_grid_s": t("grids.build_grid"),
        "clean.solve_clean_s": t("clean.solve_clean"),
        "xva.solve_xva_s.actual": t("xva.solve_xva.actual"),
        "xva.solve_xva_s.upper": t("xva.solve_xva.upper"),
        "xva.solve_xva_s.lower": t("xva.solve_xva.lower"),
        "xva.edge_updates_per_s": counts.get("xva.edge_updates", 0) / xva_s if xva_s else 0.0,
        "collateral.margin_schedule_s": t("collateral.margin_schedule"),
        "engine.run_engine_s": t("engine.run_engine"),
        "engine.self_s": self_time.get("engine.run_engine", 0.0),
        "oracle.simulate_paths_s": t("oracle.simulate_paths"),
        "oracle.paths_per_s": (counts.get("oracle.paths", 0) / t("oracle.simulate_paths")
                               if t("oracle.simulate_paths") else 0.0),
        "oracle.mc_clean_value_s": t("oracle.mc_clean_value"),
        "oracle.mc_xva_closeout_s": t("oracle.mc_xva_closeout"),
        "oracle.pathwise_wealth_check_s": t("oracle.pathwise_wealth_check"),
        "oracle.drift_identity_error_s": t("oracle.drift_identity_error"),
        "strategies.robust_strategy_s": t("strategies.robust_strategy"),
        "sweeps.s_per_point": t("sweeps.run_sweep") / points if points else 0.0,
        "reporting.write_s": sum(v for k, v in total.items() if k.startswith("reporting.")),
    }
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes") and name not in metrics and not name.startswith("trace."):
            metrics[name] = int(counts.get(name, 0))
    return metrics, imports["rxva"] + sum(self_time.values())


def summary(label: str, values: list[float]) -> None:
    print(f"{label}: median {statistics.median(values):.4f}, "
          f"min {min(values):.4f}, max {max(values):.4f}")


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rxva").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "child_env": THREAD_VARS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny problem sizes and no reference comparison")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "rxva" / "cli.py", FIVE_NAME, SINGLE_NAME) if not p.is_file()]
    if missing:
        print(f"not a checkout of rxva: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sizes = TOY if args.toy else FULL
    references = None if args.toy else load_references()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(prepare(args.workload, args.seed, sizes), work, references, sizes)
        values = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    tally = bench.tally
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_frac = {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted})")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
