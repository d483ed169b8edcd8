"""In-process timer of the lattice pass and of the Monte Carlo oracle on fixed workloads.

Prints one JSON line per workload. ``WORKLOADS`` is the one table of them:
name -> (measure function, its arguments, default repeats); each measure
function names the time key of its line. Each time is the fastest of
``--repeat`` runs.

* ``measure_pass`` (``pass_s``) times the joint pass (``xva._joint_pass``,
  compiling included) of an engine run with every variant the config prices.
  Its line holds the lattice size and step count, the pass time, the compile
  time and generated source length of that run (from a timing wrapper bound
  as ``compile`` in ``rxva.xva``'s globals), and the time per RK4 step net
  of compiling. W1: the single-name config, 2000 steps (2 states); W2: the
  five-name homogeneous config, 2000 steps (6 states); W3: the five-name
  config with ``--full-lattice``, 2000 steps (32 states); W4: eight names
  with spreads 0.02 + 0.001 i, 500 steps (256 states); W5: the two-class
  config, 2000 steps (9 states); L10: ten names with the same spreads, 20
  steps (1,024 states), where compiling is most of the pass.
* ``measure_verify`` (``verify_s``): ``V1`` solves W1 once, then times
  ``oracle.verify`` on it at 100,000 paths with seed 0. Its line holds the
  paths sampled (counted by wrapping ``oracle.simulate_paths``: 120,000) and
  the paths sampled per second.
* ``measure_drift`` (``drift_s``): ``D1``, ``D4`` and ``D5`` solve W1, W4
  and W5 once, then time ``oracle.drift_identity_error(result, "upper")``,
  the check ``verify`` runs. Their line holds the state count and the
  ``max_error`` returned.
* ``measure_sweep`` (``sweep_s``): ``S9`` times ``sweeps.run_sweep`` of a30
  over the 9-point default grid on the five-name config at 50 grid points,
  workers included. Its line holds the point count and the failed points;
  the first run of a process also pays for the modules ``run_sweep`` imports
  on its first call.
* ``measure_cli`` (``wall_s``) runs ``python -m rxva.cli`` in a fresh
  process, with ``PYTHONPATH`` set to the ``src`` it times. Its line holds
  the lowest peak resident memory of the runs as ``peak_rss_mb``, the
  interpreter's start and the imports included. C1: ``price`` on the
  single-name config; C2: ``verify --paths 100000 --seed 0`` on it (the
  benchmark's ``audit`` run); X3: ``xva --full-lattice
  --allow-assumption-violation`` on the five-name config (32 states, 2000
  steps), where writing ``xva.csv`` and ``regime.csv`` is a visible share.

Every measured process is started by ``LAUNCHER``, a ``python -c`` program
that imports neither numpy nor ``rxva``: it spawns the command, reaps it
with ``os.wait4`` and prints its wall time, ``ru_maxrss`` and exit code.
Linux carries the spawner's high-water mark into a child's ``ru_maxrss``
across fork and exec, so a child of this script would report at least this
script's peak (some 90 MiB after W4); a child of the launcher reports its
own.

With ``--baseline DIR`` it compares this tree with the checkout ``DIR``
instead: each round runs each chosen workload once from ``DIR/src`` and
once from this tree's ``src``, each in a fresh process from the launcher, in
alternating order. It prints one JSON line per workload with the two medians
over ``--repeat`` rounds of its time key and of ``peak_rss_mb``, and the
numbers of rounds in which this tree was faster and in which its peak was
lower. A round's peak is that process's own, imports and the script's setup
included; ``C1``'s is that of the CLI process the round starts. A round is
a fresh process, so its ``sweep_s`` counts ``run_sweep``'s first-call
imports.

``--record PATH`` (with ``--baseline``) also writes the run to ``PATH`` as
one JSON object:

* ``workloads``: the printed lines, in order;
* ``baseline`` and ``this``: each side's ``commit`` (the full hash of its
  ``HEAD``, suffixed ``-dirty`` when tracked files differ from it, or null
  when the side is not the top of a git checkout) and its ``src_sha256``,
  the SHA-256 of every ``src/rxva/*.py`` file's name and bytes in name
  order;
* ``host``: ``cpu_count`` (``os.cpu_count()``), ``affinity`` (the size of
  ``os.sched_getaffinity(0)``), ``python`` and ``numpy`` (their versions);
* ``repeat``: the rounds per workload, as given (null for the defaults).

Usage: ``python scripts/pass_timer.py [--repeat K] [--baseline DIR [--record PATH]]
[WORKLOAD ...]``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import rxva  # noqa: E402
from rxva import oracle, sweeps, xva  # noqa: E402
from rxva.cli import _count  # noqa: E402
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


# Spawns argv[1:], reaps it and prints its wall time, ru_maxrss (KiB) and
# exit code on a line after anything the child printed.
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def launch(label: str, argv: list[str], env=None) -> tuple[str, float, float]:
    """Runs ``argv`` under ``LAUNCHER``: its stdout, wall time and peak
    resident memory in MiB. A failed run ends this script."""
    out = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    out, _, report = out.rstrip("\n").rpartition("\n")
    wall_s, rss_kib, code = report.split()
    if int(code):
        raise SystemExit(f"{label} exited with {code}; its stderr is above")
    return out, float(wall_s), int(rss_kib) / 1024.0


def times(key: str):
    """Marks a measure function as printing its time as ``key``."""
    def mark(fn):
        fn.key = key
        return fn
    return mark


class Timer:
    """Times every pass and every compile in ``rxva.xva`` once installed."""

    def __init__(self):
        self._pass = xva._joint_pass
        self.reset()

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


TIMER = Timer()


def _solve(doc: dict, points: int, full: bool):
    """The engine result on ``doc`` at ``points`` grid points, every variant priced."""
    cfg, model, portfolio, model_P = market_from_dict(doc)
    return run_engine(cfg, model, portfolio, model_P, variants=xva.all_variants(cfg),
                      grid_points=points, force_full=full, allow_assumption_violation=True)


@times("pass_s")
def measure_pass(name: str, repeat: int, doc: dict, points: int, full: bool) -> dict:
    runs = []
    for _ in range(repeat):
        TIMER.reset()
        result = _solve(doc, points, full)
        runs.append((TIMER.pass_s, TIMER.compile_s, TIMER.chars))
    pass_s, compile_s, chars = min(runs)
    steps = len(result.grid) - 1
    return {"workload": name, "states": result.space.size, "steps": steps,
            "repeat": len(runs), "pass_s": pass_s, "compile_s": compile_s,
            "step_s": (pass_s - compile_s) / steps, "source_chars": chars}


@times("verify_s")
def measure_verify(name: str, repeat: int, solved: str, n_paths: int, seed: int) -> dict:
    result = _solve(*WORKLOADS[solved][1])
    sampled = []
    simulate = oracle.simulate_paths

    def counted(model, portfolio, count, *args, **kwargs):
        sampled.append(count)
        return simulate(model, portfolio, count, *args, **kwargs)

    oracle.simulate_paths = counted
    runs = []
    for _ in range(repeat):
        sampled.clear()
        start = time.perf_counter()
        oracle.verify(result, n_paths, seed)
        runs.append(time.perf_counter() - start)
    verify_s = min(runs)
    return {"workload": name, "paths": sum(sampled), "repeat": len(runs),
            "verify_s": verify_s, "paths_per_s": sum(sampled) / verify_s}


@times("drift_s")
def measure_drift(name: str, repeat: int, solved: str) -> dict:
    result = _solve(*WORKLOADS[solved][1])
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        max_error = oracle.drift_identity_error(result, "upper")
        runs.append(time.perf_counter() - start)
    return {"workload": name, "states": result.space.size, "repeat": len(runs),
            "drift_s": min(runs), "max_error": max_error}


@times("sweep_s")
def measure_sweep(name: str, repeat: int, doc: dict, param: str, points: int,
                  grid_points: int) -> dict:
    spec = sweeps.SweepSpec(
        param, sweeps.default_grid(sweeps.base_value(doc, param), points=points))
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = sweeps.run_sweep(doc, spec, grid_points=grid_points,
                                  allow_assumption_violation=True)
        runs.append(time.perf_counter() - start)
    return {"workload": name, "points": len(result.rows),
            "failed": sum(not row.ok for row in result.rows), "repeat": len(runs),
            "sweep_s": min(runs)}


@times("wall_s")
def measure_cli(name: str, repeat: int, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(rxva.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "rxva.cli", *args, "--out-dir", out]
        runs = [launch(name, cmd, env)[1:] for _ in range(repeat)]  # (wall, peak)
    return {"workload": name, "repeat": len(runs), "wall_s": min(w for w, _ in runs),
            "peak_rss_mb": min(m for _, m in runs)}


# name -> (measure function, its arguments, default repeats)
WORKLOADS = {
    "W1": (measure_pass, (_config("single_name_switching.json"), 2000, False), 5),
    "W2": (measure_pass, (_config("five_name_benchmark.json"), 2000, False), 5),
    "W3": (measure_pass, (_config("five_name_benchmark.json"), 2000, True), 5),
    "W4": (measure_pass, (_distinct_names(8), 500, False), 3),
    "W5": (measure_pass, (_config("two_class_contagion.json"), 2000, False), 5),
    "L10": (measure_pass, (_distinct_names(10), 20, False), 3),
    "V1": (measure_verify, ("W1", 100_000, 0), 5),
    "D1": (measure_drift, ("W1",), 5),
    "D4": (measure_drift, ("W4",), 3),
    "D5": (measure_drift, ("W5",), 5),
    "S9": (measure_sweep, (_config("five_name_benchmark.json"), "a30", 9, 50), 5),
    "C1": (measure_cli, ("price", "--config",
                         str(ROOT / "configs" / "single_name_switching.json")), 5),
    "C2": (measure_cli, ("verify", "--paths", "100000", "--seed", "0", "--config",
                         str(ROOT / "configs" / "single_name_switching.json")), 5),
    "X3": (measure_cli, ("xva", "--full-lattice", "--allow-assumption-violation", "--config",
                         str(ROOT / "configs" / "five_name_benchmark.json")), 5),
}

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
    """One run of ``name`` from ``src`` in a child process: its line, with the
    child's peak as ``peak_rss_mb`` unless the line has its own (``C1``'s)."""
    out, _, peak_rss_mb = launch(
        f"{name} from {src}", [sys.executable, "-c", _CHILD, str(src),
                               str(Path(__file__).resolve()), "--repeat", "1", name])
    line = json.loads(out)
    line.setdefault("peak_rss_mb", peak_rss_mb)
    return line


def compare(name: str, baseline: Path, repeat: int) -> dict:
    """Paired measures of ``name``: the baseline's and this tree's."""
    sides = [("baseline", baseline / "src"), ("this", ROOT / "src")]
    runs = {"baseline": [], "this": []}
    for i in range(repeat):
        for side, src in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(_run_once(name, src))

    def lower(measure):
        return sum(t[measure] < b[measure] for t, b in zip(runs["this"], runs["baseline"]))

    line = {"workload": name, "rounds": repeat}
    time_key = WORKLOADS[name][0].key
    for measure in (time_key, "peak_rss_mb"):
        line[f"baseline_{measure}"] = statistics.median(r[measure] for r in runs["baseline"])
        line[measure] = statistics.median(r[measure] for r in runs["this"])
    line["faster_rounds"] = lower(time_key)
    line["lower_rss_rounds"] = lower("peak_rss_mb")
    return line


def _side(checkout: Path) -> dict:
    """What identifies the code of ``checkout`` in a ``--record`` file."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "rxva").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (checkout / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude=*"], stdout=subprocess.PIPE, text=True).stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--repeat", type=_count(1), default=None,
                        help="runs per workload, at least 1 (default 5; W4, L10 and D4: 3)")
    parser.add_argument("--baseline", type=Path, metavar="DIR",
                        help="compare with the checkout DIR, in paired rounds")
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="with --baseline: also write the lines and the host to PATH")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    if args.baseline is not None and not (args.baseline / "src" / "rxva").is_dir():
        parser.error(f"no src/rxva under {args.baseline}")
    if args.record is not None and args.baseline is None:
        parser.error("--record needs --baseline")
    TIMER.install()
    lines = []
    for name in args.workloads or WORKLOADS:
        measure, measure_args, default_repeat = WORKLOADS[name]
        repeat = default_repeat if args.repeat is None else args.repeat
        line = (measure(name, repeat, *measure_args) if args.baseline is None
                else compare(name, args.baseline.resolve(), repeat))
        print(json.dumps(line), flush=True)
        lines.append(line)
    if args.record is not None:
        record = {
            "workloads": lines,
            "baseline": _side(args.baseline.resolve()),
            "this": _side(ROOT),
            "host": {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                     "python": sys.version.split()[0], "numpy": numpy.__version__},
            "repeat": args.repeat,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
