"""Comparative-statics sweeps and the monotonicity helper."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rxva.sweeps as sweeps
from rxva.market import ConfigError
from rxva.reporting import write_sweep_csv
from rxva.sweeps import (
    SweepSpec,
    _apply_param,
    base_value,
    default_grid,
    run_sweep,
    sweep_point,
)

from conftest import FIVE_NAME, SINGLE_NAME, TWO_CLASS
from references import is_monotone


def _load_doc():
    with open(SINGLE_NAME, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSweepSpec:
    def test_unknown_param(self):
        with pytest.raises(ValueError):
            SweepSpec(param="zeta", values=(0.1, 0.2))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec(param="a20", values=(0.2, 0.1))

    def test_empty_grid_refused(self):
        # a sweep forks at least one worker
        with pytest.raises(ConfigError, match="sweep grid is empty"):
            SweepSpec(param="a20", values=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_grid_refused(self, bad):
        # b <= a is False for NaN, so the order check alone lets it through
        with pytest.raises(ConfigError, match="sweep grid values must be finite"):
            SweepSpec(param="alpha", values=(0.0, bad))

    def test_band_rederivation_defaults(self):
        assert SweepSpec(param="a20", values=(0.1, 0.2)).rederive
        assert SweepSpec(param="a23", values=(0.1, 0.2)).rederive
        assert not SweepSpec(param="a33", values=(0.1, 0.2)).rederive
        assert not SweepSpec(param="alpha", values=(0.1, 0.2)).rederive


class TestDefaultGrid:
    def test_relative_span(self):
        grid = default_grid(0.1, points=5, span=0.5)
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.15)
        assert len(grid) == 5

    def test_zero_base_unit_interval(self):
        grid = default_grid(0.0, points=3)
        assert grid == (0.0, 0.5, 1.0)

    def test_negative_base_reorders(self):
        grid = default_grid(-0.1, points=3, span=0.5)
        assert grid[0] < grid[-1]

    def test_one_point_is_the_base(self):
        # linspace(lo, hi, 1) is lo, base * (1 - span): a30 = 0.005 on the
        # five-name config, whose a30 is 0.01
        with open(FIVE_NAME, "r", encoding="utf-8") as fh:
            a30 = base_value(json.load(fh), "a30")
        assert a30 == 0.01
        for base in (a30, -0.1, 0.0):
            assert default_grid(base, points=1, span=0.5) == (base,)

    def test_values_are_python_floats(self):
        # a numpy float64 pickles through numpy's scalar reconstructor, which
        # makes every row a sweep worker sends about a third longer
        for base, points in ((0.01, 9), (0.0, 3), (0.01, 1)):
            grid = default_grid(base, points=points)
            assert len(grid) == points and all(type(v) is float for v in grid)
        assert default_grid(0.01, points=9) == tuple(np.linspace(0.005, 0.015, 9))


class TestApplyParam:
    def test_contagion_params(self):
        doc = _load_doc()
        out = _apply_param(doc, "a33", 0.42)
        assert out["contagion"]["a33"] == 0.42
        assert "a33" not in doc["contagion"]  # base untouched

    def test_alpha(self):
        doc = _load_doc()
        out = _apply_param(doc, "alpha", 0.7)
        assert out["portfolio"]["collateral"]["alpha"] == 0.7

    def test_band_width_recenters(self):
        doc = _load_doc()
        out = _apply_param(doc, "band_width", 0.05)
        band = out["counterparty_band"]
        assert band["mu_upper"] - band["mu_lower"] == pytest.approx(0.05)
        center = 0.5 * (band["mu_upper"] + band["mu_lower"])
        assert center == pytest.approx(0.2001)


class TestRunSweep:
    def test_alpha_sweep_rows(self):
        doc = _load_doc()
        spec = SweepSpec(param="alpha", values=(0.0, 0.5, 1.0))
        result = run_sweep(doc, spec, grid_points=300)
        assert all(r.ok for r in result.rows)
        v0 = result.column("v_hat_0")
        assert np.max(np.abs(np.diff(v0))) < 1e-12  # clean value is collateral-free
        assert np.all(np.isfinite(result.column("xva_upper")))
        assert np.all(np.isfinite(result.column("xi_f_val")))

    def test_band_width_sweep_widens_gap(self):
        doc = _load_doc()
        spec = SweepSpec(param="band_width", values=(0.02, 0.06, 0.10))
        result = run_sweep(doc, spec, grid_points=300)
        assert all(r.ok for r in result.rows)
        gap = result.column("xva_upper") - result.column("xva_lower")
        assert is_monotone(gap, "nondecreasing", slack=1e-12)

    def test_gamma_and_full_lattice_reach_every_point(self, monkeypatch, tmp_path):
        # the points run in worker processes, so the spy reports through a file
        log = tmp_path / "calls.jsonl"
        engine = sweeps.run_engine

        def spy(cfg, model, portfolio, model_P, **kwargs):
            call = [sorted({c.direction for c in portfolio.contracts}), kwargs["force_full"]]
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(call) + "\n")
            return engine(cfg, model, portfolio, model_P, **kwargs)

        monkeypatch.setattr(sweeps, "run_engine", spy)
        with open(FIVE_NAME, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = SweepSpec(param="alpha", values=(0.0, 0.5))
        result = run_sweep(doc, spec, grid_points=100, allow_assumption_violation=True,
                           gamma=-1, force_full=True)
        assert all(r.ok for r in result.rows)
        seen = [(set(directions), full) for directions, full
                in map(json.loads, log.read_text(encoding="utf-8").splitlines())]
        assert seen == [({-1}, True)] * 2

    def test_refusal_names_the_table_key_given(self):
        # a shared reference table may be given as reference_table
        doc = _load_doc()
        doc["contagion"]["reference_table"] = doc["contagion"].pop("reference_tables")[0]
        with pytest.raises(ConfigError, match=r"contagion\.reference_table in"):
            run_sweep(doc, SweepSpec(param="a33", values=(0.1, 0.2)), grid_points=50)

    def test_contagion_is_nonlinear_beyond_the_step_error(self):
        # the paper's claim that credit contagion moves the bounds, the actual
        # XVA and the root holdings nonlinearly: over a33 within +-50% of the
        # two-class config's value, every second difference of the root values
        # exceeds, by a factor of 1000, any change from 1000 to 2000 steps
        with open(TWO_CLASS, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = SweepSpec(param="a33", values=default_grid(doc["contagion"]["a33"], points=9))
        assert (spec.values[0], spec.values[-1]) == pytest.approx((0.0025, 0.0075))
        coarse, fine = (run_sweep(doc, spec, grid_points=n) for n in (1000, 2000))
        columns = ("xva_lower", "xva_actual", "xva_upper", "xi_ref_val")
        assert all(r.ok for r in coarse.rows + fine.rows)
        curvature = min(np.abs(np.diff(fine.column(c), 2)).min() for c in columns)
        step_error = max(np.abs(fine.column(c) - coarse.column(c)).max() for c in columns)
        assert curvature > 1000.0 * step_error, (curvature, step_error)

    def test_failed_points_recorded_and_skipped(self):
        doc = _load_doc()
        spec = SweepSpec(param="band_width", values=(-0.1, 0.1))
        result = run_sweep(doc, spec, grid_points=200)
        assert not result.rows[0].ok
        assert "ConfigError" in result.rows[0].error
        assert result.rows[1].ok
        assert len(result.column("xva_upper")) == 1


def _bits(row):
    """Every field of a sweep row but its wall-clock timings, floats as their
    exact hex form so that two rows compare bit for bit (NaN included)."""
    return [(f.name, float(v).hex() if isinstance(v, float) else v)
            for f in dataclasses.fields(row) if f.name != "timings"
            for v in (getattr(row, f.name),)]


# A CLI sweep of alpha over (0.0, 0.5, 1.0) on the single-name config in
# which the worker solving any alpha listed in argv[2] dies at once.
_DYING_WORKER = """
import os, sys
import rxva.cli as cli
import rxva.sweeps as sweeps

doomed = {float(a) for a in sys.argv[2].split(",")}
engine = sweeps.run_engine

def spy(cfg, model, portfolio, model_P, **kwargs):
    if portfolio.collateral.alpha in doomed:
        os._exit(1)
    return engine(cfg, model, portfolio, model_P, **kwargs)

sweeps.run_engine = spy
sys.exit(cli.main(["sweep", "--config", sys.argv[3], "--out-dir", sys.argv[1],
                   "--param", "alpha", "--points", "3", "--grid-points", "200"]))
"""


class TestParallelSweep:
    @pytest.mark.parametrize("config, param, values, grid_points", [
        (FIVE_NAME, "a30", None, 200),
        (SINGLE_NAME, "band_width", (-0.1, 0.1, 0.2), 300),
    ], ids=["five-name-a30", "single-name-band-width-failing"])
    def test_rows_equal_a_sequential_loop(self, config, param, values, grid_points):
        with open(config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if values is None:
            values = default_grid(base_value(doc, param), points=5)
        spec = SweepSpec(param=param, values=values)
        options = dict(grid_points=grid_points, allow_assumption_violation=True,
                       gamma=1, force_full=False)
        sequential = [sweep_point(doc, spec, value, **options) for value in values]
        parallel = run_sweep(doc, spec, **options).rows
        assert [_bits(row) for row in parallel] == [_bits(row) for row in sequential]
        assert [row.value for row in parallel] == list(values)
        if param == "band_width":
            assert [row.ok for row in parallel] == [False, True, True]
            assert parallel[0].error.startswith("ConfigError: inverted counterparty band")

    def test_rows_carry_the_pass_time_and_the_csv_omits_it(self, tmp_path):
        doc = _load_doc()
        spec = SweepSpec(param="band_width", values=(-0.1, 0.02, 0.06, 0.10))
        result = run_sweep(doc, spec, grid_points=200)
        assert [row.ok for row in result.rows] == [False, True, True, True]
        assert result.rows[0].timings == {}
        assert all(row.timings["pass"] > 0.0 for row in result.rows if row.ok)
        write_sweep_csv(tmp_path / "with.csv", result)
        for row in result.rows:
            row.timings = {}
        write_sweep_csv(tmp_path / "without.csv", result)
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    def test_csv_quotes_a_status_that_holds_a_separator(self, tmp_path):
        # the five-name config fails its rate inequalities, so every point's
        # error names min(mu_1..mu_N, mu_I, mu_C_lower), commas included
        with open(FIVE_NAME, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = SweepSpec(param="a30", values=default_grid(base_value(doc, "a30"), points=2))
        result = run_sweep(doc, spec, grid_points=20)
        assert all(not row.ok and "," in row.error for row in result.rows)
        result.rows += [sweeps.SweepRow(value=1.0, ok=False, error='a "quoted"\nerror'),
                        sweeps.SweepRow(value=2.0, ok=False, error="plain"),
                        sweeps.SweepRow(value=3.0, ok=True)]
        write_sweep_csv(tmp_path / "sweep.csv", result)
        with open(tmp_path / "sweep.csv", "r", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == len(result.rows)
        assert all(len(cells) == len(header) for cells in rows)
        assert [cells[-1] for cells in rows] == \
            ["ok" if row.ok else f"failed({row.error})" for row in result.rows]
        # a status without a separator is written bare, as before
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[-2].endswith(",failed(plain)") and lines[-1].endswith(",ok")

    @staticmethod
    def _dying_sweep(out, doomed):
        """Runs _DYING_WORKER into ``out``: its exit code, stderr and CSV rows."""
        src = Path(sweeps.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        # a hung sweep fails the test here instead of blocking the suite
        proc = subprocess.run(
            [sys.executable, "-c", _DYING_WORKER, str(out), doomed, str(SINGLE_NAME)],
            env=env, capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr, proc.stderr
        with open(out / "sweep_alpha.csv", "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["param"]) for r in rows] == [0.0, 0.5, 1.0]
        assert json.loads((out / "manifest.json").read_text())["outputs"] == ["sweep_alpha.csv"]
        return proc.returncode, proc.stderr, {float(r["param"]): r["status"] for r in rows}

    @pytest.mark.parametrize("doomed", ["0.5", "0.0,0.5,1.0"], ids=["one", "every"])
    def test_dying_worker_fails_the_unfinished_points(self, tmp_path, doomed):
        # a point fails only when its row never arrives: every doomed point,
        # and on one CPU the points after a doomed one in the same worker
        rc, stderr, status = self._dying_sweep(tmp_path / "out", doomed)
        for alpha in map(float, doomed.split(",")):
            assert status[alpha] == "failed(worker died: exit code 1)"
        failed = [s for s in status.values() if s != "ok"]
        assert all(s == "failed(worker died: exit code 1)" for s in failed)
        every_failed = len(failed) == len(status)
        assert rc == (2 if every_failed else 0), stderr
        assert ("every sweep point failed" in stderr) == every_failed

    def test_rows_sent_before_a_worker_died_are_kept(self, tmp_path):
        # on any CPU count, worker 0 sends 0.0 before it reaches 1.0, and
        # 0.5 is solved by worker 0 before 1.0 or by a worker of its own
        rc, stderr, status = self._dying_sweep(tmp_path / "out", "1.0")
        assert status == {0.0: "ok", 0.5: "ok", 1.0: "failed(worker died: exit code 1)"}
        assert rc == 0, stderr
        assert "every sweep point failed" not in stderr

    def test_a_cli_sweep_imports_no_process_pool(self, tmp_path):
        # nor _hashlib (OpenSSL): the manifest's digest is CPython's own
        # SHA-256, equal to hashlib's
        src = Path(sweeps.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import rxva.cli as cli\n"
            "rc = cli.main(['sweep', '--config', sys.argv[1], '--out-dir', sys.argv[2],\n"
            "               '--param', 'alpha', '--points', '3', '--grid-points', '50'])\n"
            "print(rc, sorted({'multiprocessing', 'concurrent.futures', '_hashlib'}\n"
            "                 & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SINGLE_NAME), str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config_sha256"] == hashlib.sha256(SINGLE_NAME.read_bytes()).hexdigest()

    def test_no_thread_is_started_and_no_child_is_left(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        threads = threading.active_count()
        result = run_sweep(_load_doc(), SweepSpec(param="alpha", values=(0.0, 0.5, 1.0)),
                           grid_points=50)
        assert [row.ok for row in result.rows] == [True, True, True]
        assert started == [] and threading.active_count() == threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_is_left_when_the_sweep_raises(self, monkeypatch):
        # the first row read interrupts the sweep while the workers still solve
        def interrupted(_file):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweeps.pickle, "load", interrupted)
        spec = SweepSpec(param="alpha", values=tuple(np.linspace(0.0, 1.0, 8)))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_load_doc(), spec, grid_points=2000)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_rows_larger_than_a_pipe_buffer_equal_a_sequential_loop(self):
        # about 371 pickled bytes a row and 200 rows a worker: each worker
        # sends more than a 64 KiB pipe buffer holds, so it blocks until read
        doc = _load_doc()
        points = 200 * max(2, len(os.sched_getaffinity(0)))
        spec = SweepSpec(param="alpha",
                         values=default_grid(base_value(doc, "alpha"), points=points))
        options = dict(grid_points=1, allow_assumption_violation=True, gamma=1,
                       force_full=False)
        sequential = [sweep_point(doc, spec, value, **options) for value in spec.values]
        assert all(row.ok for row in sequential)
        parallel = run_sweep(doc, spec, **options).rows
        assert [_bits(row) for row in parallel] == [_bits(row) for row in sequential]


class TestIsMonotone:
    def test_directions(self):
        up = np.array([0.0, 0.1, 0.1, 0.2])
        assert is_monotone(up, "nondecreasing")
        assert not is_monotone(up, "nonincreasing")
        assert is_monotone(up[::-1], "nonincreasing")
        assert is_monotone(np.array([1.0, 1.0 + 1e-12]), "constant")
        assert not is_monotone(np.array([1.0, 1.1]), "constant")

    def test_slack(self):
        wiggle = np.array([0.0, -1e-11, 0.1])
        assert is_monotone(wiggle, "nondecreasing", slack=1e-10)
        assert not is_monotone(wiggle, "nondecreasing", slack=1e-12)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            is_monotone(np.array([0.0, 1.0]), "upwards")
