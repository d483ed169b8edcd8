"""In-process timer of the lattice pass and of the Monte Carlo oracle on fixed workloads.

Prints one JSON line per workload. For a pass workload the line holds the
lattice size and step count, the fastest of ``--repeat`` runs of the joint
pass (``xva._joint_pass``, compiling included), the compile time and generated
source length of that run, and its time per RK4 step net of compiling. Compile
time is measured by binding a timing wrapper as ``compile`` in ``rxva.xva``'s
globals. The full 2^10 lattice (``L10``) runs at 20 grid points, where
compiling is most of the pass.

Workloads, each an engine run with every variant the config prices:

* W1: the single-name config, 2000 steps (2 states);
* W2: the five-name homogeneous config, 2000 steps (6 states);
* W3: the five-name config with ``--full-lattice``, 2000 steps (32 states);
* W4: eight names with spreads 0.02 + 0.001 i, 500 steps (256 states);
* W5: the two-class config, 2000 steps (9 states);
* L10: ten names with spreads 0.02 + 0.001 i, 20 steps (1,024 states).

The oracle workload ``V1`` solves W1 once, then times ``oracle.verify`` on
that result at 100,000 paths with seed 0. Its line holds the paths sampled
(counted by wrapping ``oracle.simulate_paths``: 120,000), the fastest of
``--repeat`` runs as ``verify_s`` and the paths sampled per second of it.

The drift-identity workloads ``D1``, ``D4`` and ``D5`` solve W1, W4 and W5
once, then time ``oracle.drift_identity_error(result, "upper")`` on that
result, the check ``verify`` runs. Their line holds the state count, the
fastest of ``--repeat`` runs as ``drift_s`` and the ``max_error`` it
returned.

The sweep workload ``S9`` times ``sweeps.run_sweep`` of a30 over the 9-point
default grid on the five-name config at 50 grid points, worker processes
included. Its line holds the point count, the failed points and the fastest
of ``--repeat`` runs as ``sweep_s``; the first run of a process also pays for
any module that ``run_sweep`` imports on its first call.

The start workload ``C1`` runs ``python -m rxva.cli price`` on the
single-name config in a fresh process, with ``PYTHONPATH`` set to the ``src``
it times. Its line holds the fastest of ``--repeat`` runs as ``wall_s`` and
the lowest peak resident memory, from ``os.wait4``'s ``ru_maxrss``, as
``peak_rss_mb``: the interpreter's start and the package's imports included.

With ``--baseline DIR`` it compares this tree's pass with that of the
checkout ``DIR`` instead: each round times one run of every chosen workload
from ``DIR/src`` and one from this tree's ``src``, each in a fresh
subprocess, in alternating order. It prints one JSON line per workload with
the two medians over ``--repeat`` rounds of its time (``pass_s``, ``verify_s``
for ``V1``, ``drift_s`` for ``D1``, ``D4`` and ``D5``, ``sweep_s`` for ``S9``,
or ``wall_s`` for ``C1``) and of its ``peak_rss_mb``, and the numbers of rounds
in which this tree was faster and in which its peak memory was lower. The
peak is the round's process's ``ru_maxrss`` from ``os.wait4``, imports and
the script's own setup included (``C1``'s is that of the CLI process). Each
round is one run in a fresh process, so ``sweep_s`` there counts
``run_sweep``'s first-call imports.

Usage: ``python scripts/pass_timer.py [--repeat K] [--baseline DIR] [WORKLOAD ...]``
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import rxva  # noqa: E402
from rxva import oracle, sweeps, xva  # noqa: E402
from rxva.engine import run_engine  # noqa: E402
from rxva.market import market_from_dict  # noqa: E402


def _config(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))


def _distinct_names(n: int) -> dict:
    """The five-name config with ``n`` contracts of distinct spreads: one
    lattice class per name, so 2^n states."""
    doc = _config("five_name_benchmark.json")
    contract = doc["portfolio"]["contracts"][0]
    doc["portfolio"]["contracts"] = [dict(contract, spread=0.02 + 0.001 * i) for i in range(n)]
    return doc


# name -> (config document, grid points, one class per name, default repeats)
WORKLOADS = {
    "W1": (_config("single_name_switching.json"), 2000, False, 5),
    "W2": (_config("five_name_benchmark.json"), 2000, False, 5),
    "W3": (_config("five_name_benchmark.json"), 2000, True, 5),
    "W4": (_distinct_names(8), 500, False, 3),
    "W5": (_config("two_class_contagion.json"), 2000, False, 5),
    "L10": (_distinct_names(10), 20, False, 3),
}

# name -> (pass workload solved, paths, seed, default repeats)
VERIFY_WORKLOADS = {"V1": ("W1", 100_000, 0, 5)}

# name -> (pass workload solved, default repeats)
DRIFT_WORKLOADS = {"D1": ("W1", 5), "D4": ("W4", 3), "D5": ("W5", 5)}

# name -> (config document, parameter, sweep points, grid points, default repeats)
SWEEP_WORKLOADS = {"S9": (_config("five_name_benchmark.json"), "a30", 9, 50, 5)}

# name -> (CLI arguments, default repeats)
CLI_WORKLOADS = {
    "C1": (("price", "--config", str(ROOT / "configs" / "single_name_switching.json")), 5),
}


class Timer:
    """Times every pass and every compile in ``rxva.xva`` once installed."""

    def __init__(self):
        self.pass_s = self.compile_s = 0.0
        self.chars = 0
        self._pass = xva._joint_pass

    def install(self) -> None:
        xva.compile = self.compile
        xva._joint_pass = self.joint_pass

    def reset(self) -> None:
        self.pass_s = self.compile_s = 0.0
        self.chars = 0

    def compile(self, source, *args, **kwargs):
        start = time.perf_counter()
        code = compile(source, *args, **kwargs)
        self.compile_s += time.perf_counter() - start
        self.chars += len(source)
        return code

    def joint_pass(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._pass(*args, **kwargs)
        self.pass_s += time.perf_counter() - start
        return out


def _solve(name: str):
    """The engine result of pass workload ``name``, every variant priced."""
    doc, points, full, _ = WORKLOADS[name]
    cfg, model, portfolio, model_P = market_from_dict(doc)
    return run_engine(cfg, model, portfolio, model_P, variants=xva.all_variants(cfg),
                      grid_points=points, force_full=full, allow_assumption_violation=True)


def measure(name: str, timer: Timer, repeat: int | None) -> dict:
    runs = []
    for _ in range(repeat or WORKLOADS[name][3]):
        timer.reset()
        result = _solve(name)
        runs.append((timer.pass_s, timer.compile_s, timer.chars))
    pass_s, compile_s, chars = min(runs)
    steps = len(result.grid) - 1
    return {"workload": name, "states": result.space.size, "steps": steps,
            "repeat": len(runs), "pass_s": pass_s, "compile_s": compile_s,
            "step_s": (pass_s - compile_s) / steps, "source_chars": chars}


def measure_verify(name: str, repeat: int | None) -> dict:
    solved, n_paths, seed, default_repeat = VERIFY_WORKLOADS[name]
    result = _solve(solved)
    sampled = []
    simulate = oracle.simulate_paths

    def counted(model, portfolio, count, *args, **kwargs):
        sampled.append(count)
        return simulate(model, portfolio, count, *args, **kwargs)

    oracle.simulate_paths = counted
    runs = []
    for _ in range(repeat or default_repeat):
        sampled.clear()
        start = time.perf_counter()
        oracle.verify(result, n_paths, seed)
        runs.append(time.perf_counter() - start)
    verify_s = min(runs)
    return {"workload": name, "paths": sum(sampled), "repeat": len(runs),
            "verify_s": verify_s, "paths_per_s": sum(sampled) / verify_s}


def measure_drift(name: str, repeat: int | None) -> dict:
    solved, default_repeat = DRIFT_WORKLOADS[name]
    result = _solve(solved)
    runs = []
    for _ in range(repeat or default_repeat):
        start = time.perf_counter()
        max_error = oracle.drift_identity_error(result, "upper")
        runs.append(time.perf_counter() - start)
    return {"workload": name, "states": result.space.size, "repeat": len(runs),
            "drift_s": min(runs), "max_error": max_error}


def measure_sweep(name: str, repeat: int | None) -> dict:
    doc, param, points, grid_points, default_repeat = SWEEP_WORKLOADS[name]
    spec = sweeps.SweepSpec(
        param, sweeps.default_grid(sweeps.base_value(doc, param), points=points))
    runs = []
    for _ in range(repeat or default_repeat):
        start = time.perf_counter()
        result = sweeps.run_sweep(doc, spec, grid_points=grid_points,
                                  allow_assumption_violation=True)
        runs.append(time.perf_counter() - start)
    return {"workload": name, "points": len(result.rows),
            "failed": sum(not row.ok for row in result.rows), "repeat": len(runs),
            "sweep_s": min(runs)}


def measure_cli(name: str, repeat: int | None) -> dict:
    args, default_repeat = CLI_WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(Path(rxva.__file__).resolve().parents[1]))
    runs = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(repeat or default_repeat):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rxva.cli", *args, "--out-dir", out],
                                    env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)  # reaps it: Popen must not wait
            runs.append((time.perf_counter() - start, usage.ru_maxrss / 1024.0))
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode:
                raise SystemExit(f"{name} exited with {proc.returncode}")
    return {"workload": name, "repeat": len(runs), "wall_s": min(w for w, _ in runs),
            "peak_rss_mb": min(m for _, m in runs)}


# A --baseline round's child: imports the package from the given src first,
# so that the script, which then puts its own src first, times that tree.
_CHILD = """\
import runpy, sys
sys.path.insert(0, sys.argv[1])
import rxva
sys.argv = sys.argv[2:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _run_once(name: str, src: Path) -> dict:
    """One run of ``name`` from ``src`` in a child process: its line, with
    the child's peak resident memory as ``peak_rss_mb`` unless the line has
    its own (``C1``'s, of the CLI process it starts)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(src), str(Path(__file__).resolve()),
         "--repeat", "1", name], stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # reaps it: Popen must not wait
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{name} from {src} failed; its stderr is above")
    line = json.loads(out)
    line.setdefault("peak_rss_mb", usage.ru_maxrss / 1024.0)
    return line


def compare(name: str, baseline: Path, repeat: int | None) -> dict:
    """Paired measures of ``name``: the baseline's and this tree's."""
    if name in VERIFY_WORKLOADS:
        key, default_repeat = "verify_s", VERIFY_WORKLOADS[name][3]
    elif name in DRIFT_WORKLOADS:
        key, default_repeat = "drift_s", DRIFT_WORKLOADS[name][1]
    elif name in SWEEP_WORKLOADS:
        key, default_repeat = "sweep_s", SWEEP_WORKLOADS[name][4]
    elif name in CLI_WORKLOADS:
        key, default_repeat = "wall_s", CLI_WORKLOADS[name][1]
    else:
        key, default_repeat = "pass_s", WORKLOADS[name][3]
    sides = [("baseline", baseline / "src"), ("this", ROOT / "src")]
    runs = {"baseline": [], "this": []}
    rounds = repeat or default_repeat
    for i in range(rounds):
        for side, src in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(_run_once(name, src))

    def lower(measure):
        return sum(t[measure] < b[measure] for t, b in zip(runs["this"], runs["baseline"]))

    line = {"workload": name, "rounds": rounds}
    for measure in (key, "peak_rss_mb"):
        line[f"baseline_{measure}"] = statistics.median(r[measure] for r in runs["baseline"])
        line[measure] = statistics.median(r[measure] for r in runs["this"])
    line["faster_rounds"] = lower(key)
    line["lower_rss_rounds"] = lower("peak_rss_mb")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [*WORKLOADS, *VERIFY_WORKLOADS, *DRIFT_WORKLOADS, *SWEEP_WORKLOADS,
             *CLI_WORKLOADS]
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(names)} (default: all)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs per workload (default 5; W4, L10 and D4: 3)")
    parser.add_argument("--baseline", type=Path, metavar="DIR",
                        help="compare with the checkout DIR, in paired rounds")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    if args.baseline is not None:
        if not (args.baseline / "src" / "rxva").is_dir():
            parser.error(f"no src/rxva under {args.baseline}")
        for name in args.workloads or names:
            print(json.dumps(compare(name, args.baseline.resolve(), args.repeat)), flush=True)
        return 0
    timer = Timer()
    timer.install()
    for name in args.workloads or names:
        if name in VERIFY_WORKLOADS:
            line = measure_verify(name, args.repeat)
        elif name in DRIFT_WORKLOADS:
            line = measure_drift(name, args.repeat)
        elif name in SWEEP_WORKLOADS:
            line = measure_sweep(name, args.repeat)
        elif name in CLI_WORKLOADS:
            line = measure_cli(name, args.repeat)
        else:
            line = measure(name, timer, args.repeat)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
