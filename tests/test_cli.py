"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rxva.cli as cli
import rxva.engine as engine
import rxva.xva as xva

from conftest import FIVE_NAME, SINGLE_NAME


def _run(*argv):
    return cli.main(list(argv))


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _minimal_doc():
    return {
        "rates": {"r_D": 0.001, "r_f_plus": 0.001, "r_f_minus": 0.001,
                  "r_m_plus": 0.001, "r_m_minus": 0.001},
        "counterparty_band": {"mu_lower": 0.1501, "mu_upper": 0.2501,
                              "mu_true": 0.2001},
        "portfolio": {
            "contracts": [{"spread": 0.02, "loss": 0.5, "direction": 1}],
            "maturity": 1.0, "L_I": 0.5, "L_C": 0.5,
        },
        "contagion": {"a10": 0.2, "a20": 0.2, "a30": 0.3},
    }


class TestPrice:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        code = _run("price", "--config", str(SINGLE_NAME),
                    "--out-dir", str(out), "--grid-points", "300")
        assert code == cli.EXIT_OK
        rows = _read_csv(out / "clean.csv")
        assert set(rows[0]) == {"time", "state", "value"}
        margins = _read_csv(out / "margins.csv")
        assert set(margins[0]) == {"time", "state", "vm", "im", "m"}
        man = json.loads((out / "manifest.json").read_text())
        assert man["subcommand"] == "price"
        assert man["grid_points"] == 300
        assert sorted(man["outputs"]) == ["clean.csv", "margins.csv"]

    def test_empty_portfolio_prices_to_zero(self, tmp_path):
        doc = _minimal_doc()
        doc["portfolio"]["contracts"] = []
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert _run("price", "--config", str(cfg), "--out-dir", str(out),
                    "--grid-points", "100") == cli.EXIT_OK
        rows = _read_csv(out / "clean.csv")
        assert rows and all(float(r["value"]) == 0.0 for r in rows)

    def test_gamma_recorded_in_manifest(self, tmp_path):
        # the two runs write different clean.csv, so their manifests differ
        mans = []
        for gamma in ("1", "-1"):
            out = tmp_path / f"gamma{gamma}"
            assert _run("price", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                        "--grid-points", "100", "--gamma", gamma) == cli.EXIT_OK
            man = json.loads((out / "manifest.json").read_text())
            man.pop("wall_clock_s")
            mans.append(man)
        assert mans[0] != mans[1]
        assert [m["flags"]["gamma"] for m in mans] == [1, -1]
        assert set(mans[0]["flags"]) == {"gamma", "full_lattice",
                                         "allow_assumption_violation"}

    def test_gamma_flip_negates_clean(self, tmp_path):
        cfg = _write_config(tmp_path, _minimal_doc())
        out1, out2 = tmp_path / "plus", tmp_path / "minus"
        _run("price", "--config", str(cfg), "--out-dir", str(out1),
             "--grid-points", "150")
        _run("price", "--config", str(cfg), "--out-dir", str(out2),
             "--grid-points", "150", "--gamma", "-1")
        a = _read_csv(out1 / "clean.csv")
        b = _read_csv(out2 / "clean.csv")
        for ra, rb in zip(a, b):
            assert float(ra["value"]) == pytest.approx(-float(rb["value"]),
                                                       abs=1e-14)


class TestXva:
    def test_all_variants(self, tmp_path):
        out = tmp_path / "out"
        code = _run("xva", "--config", str(SINGLE_NAME),
                    "--out-dir", str(out), "--grid-points", "300")
        assert code == cli.EXIT_OK
        rows = _read_csv(out / "xva.csv")
        assert set(rows[0]) == {"time", "state", "u_actual", "u_upper", "u_lower"}
        regimes = _read_csv(out / "regime.csv")
        assert set(regimes[0]) == {"time", "state", "regime_upper", "regime_lower"}
        assert {r["regime_upper"] for r in regimes} <= {"LO", "HI", "TIE"}

    def test_which_single_variant(self, tmp_path):
        out = tmp_path / "out"
        assert _run("xva", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--grid-points", "200", "--which", "upper") == cli.EXIT_OK
        rows = _read_csv(out / "xva.csv")
        assert set(rows[0]) == {"time", "state", "u_upper"}

    def test_twenty_names_in_two_classes(self, tmp_path):
        # 2^20 states exceed the lattice bound; two classes of ten need 11 x 11
        doc = _minimal_doc()
        con = doc["portfolio"]["contracts"][0]
        doc["portfolio"]["contracts"] = [con, dict(con, spread=0.03)] * 10
        out = tmp_path / "out"
        assert _run("xva", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out),
                    "--grid-points", "5") == cli.EXIT_OK
        assert {int(row["state"]) for row in _read_csv(out / "xva.csv")} == set(range(121))

    def test_manifest_omits_a_regime_csv_this_run_did_not_write(self, tmp_path):
        # an earlier run leaves regime.csv behind; --which actual writes none
        out = tmp_path / "out"
        common = ("--config", str(SINGLE_NAME), "--out-dir", str(out), "--grid-points", "200")
        assert _run("xva", *common) == cli.EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["outputs"] == \
            ["regime.csv", "xva.csv"]
        assert _run("xva", *common, "--which", "actual") == cli.EXIT_OK
        assert (out / "regime.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == ["xva.csv"]

    def test_actual_needs_true_rate(self, tmp_path):
        doc = _minimal_doc()
        del doc["counterparty_band"]["mu_true"]
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert _run("xva", "--config", str(cfg), "--out-dir", str(out),
                    "--grid-points", "100",
                    "--which", "actual") == cli.EXIT_CONFIG
        assert _run("xva", "--config", str(cfg), "--out-dir", str(out),
                    "--grid-points", "100",
                    "--which", "all") == cli.EXIT_OK
        rows = _read_csv(out / "xva.csv")
        assert set(rows[0]) == {"time", "state", "u_upper", "u_lower"}


class TestVerify:
    def test_report_passes(self, tmp_path):
        out = tmp_path / "out"
        code = _run("verify", "--config", str(SINGLE_NAME),
                    "--out-dir", str(out), "--grid-points", "400",
                    "--paths", "3000", "--seed", "1")
        assert code == cli.EXIT_OK
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == 1

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "verify",
            lambda result, n_paths, seed: {"passed": False, "checks": {}},
        )
        out = tmp_path / "out"
        code = _run("verify", "--config", str(SINGLE_NAME),
                    "--out-dir", str(out), "--grid-points", "200",
                    "--paths", "10")
        assert code == cli.EXIT_VERIFY


class TestSweep:
    def test_sweep_artifact(self, tmp_path):
        out = tmp_path / "out"
        code = _run("sweep", "--config", str(SINGLE_NAME),
                    "--out-dir", str(out), "--grid-points", "200",
                    "--param", "band_width", "--points", "3")
        assert code == cli.EXIT_OK
        rows = _read_csv(out / "sweep_band_width.csv")
        assert len(rows) == 3
        assert all(r["status"] == "ok" for r in rows)
        assert {"param", "xva_lower", "xva_actual", "xva_upper", "v_hat_0",
                "xi_ref_val", "xi_I_val", "xi_C_val", "xi_f_val",
                "status"} == set(rows[0])

    def test_gamma_flip_negates_clean_column(self, tmp_path):
        columns = []
        for gamma in ("1", "-1"):
            out = tmp_path / f"gamma{gamma}"
            assert _run("sweep", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                        "--grid-points", "200", "--param", "band_width", "--points", "3",
                        "--gamma", gamma) == cli.EXIT_OK
            rows = _read_csv(out / "sweep_band_width.csv")
            assert all(r["status"] == "ok" for r in rows)
            columns.append([float(r["v_hat_0"]) for r in rows])
        assert all(v != 0.0 for v in columns[0])
        assert columns[1] == [-v for v in columns[0]]

    @pytest.mark.parametrize("param, table", [
        ("a30", "reference_tables"), ("a33", "reference_tables"),
        ("a20", "counterparty_table"), ("a23", "counterparty_table"),
    ])
    def test_parameter_overridden_by_table_refused(self, tmp_path, capsys, param, table):
        # the single-name config gives its intensities as tables, so the
        # affine parameter would leave every row the same
        out = tmp_path / "out"
        assert _run("sweep", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--grid-points", "50", "--param", param, "--points", "2") == cli.EXIT_CONFIG
        assert f"contagion.{table}" in capsys.readouterr().err
        assert not (out / f"sweep_{param}.csv").exists()


class TestSinglePass:
    @pytest.mark.parametrize("command", [("price",), ("xva",), ("verify", "--paths", "500")])
    def test_one_rk4_sweep_per_run(self, tmp_path, monkeypatch, command):
        calls = []
        sweep = xva.rk4_sweep
        monkeypatch.setattr(xva, "rk4_sweep", lambda *a: (calls.append(a), sweep(*a))[1])
        assert _run(*command, "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path),
                    "--grid-points", "200") == cli.EXIT_OK
        assert len(calls) == 1


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert _run("price", "--config", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path / "o")) == cli.EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert _run("price", "--config", str(bad),
                    "--out-dir", str(tmp_path / "o")) == cli.EXIT_CONFIG

    _DEGENERATE = [
        (("verify",), "--paths", "0"), (("verify",), "--paths", "-5"),
        (("verify",), "--paths", "1"), (("verify",), "--grid-points", "0"),
        (("sweep", "--param", "a30"), "--points", "0"), (("verify",), "--seed", "-1"),
    ]

    @pytest.mark.parametrize("command, flag, value", _DEGENERATE,
                             ids=[f"{flag}-{value}" for _, flag, value in _DEGENERATE])
    def test_degenerate_counts_refused(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            _run(*command, "--config", str(SINGLE_NAME), "--out-dir", str(out),
                 flag, value)
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["alpha", "band_width"])
    @pytest.mark.parametrize("span", ["nan", "inf", "-inf"])
    def test_non_finite_span_refused(self, tmp_path, capsys, param, span):
        # alpha has base 0, where the span does not enter the grid at all
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            _run("sweep", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                 "--param", param, "--points", "3", "--grid-points", "50", f"--span={span}")
        assert exc.value.code == cli.EXIT_CONFIG
        assert "argument --span: must be finite" in capsys.readouterr().err
        assert not out.exists()

    _NON_FINITE_PASS = [
        ("price", ("spread",), 1e308, ()), ("xva", ("spread",), 1e308, ()),
        ("price", ("maturity",), 1e300, ("--grid-points", "5")),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, field, value, extra", _NON_FINITE_PASS,
                             ids=["price-spread", "xva-spread", "price-maturity"])
    def test_non_finite_pass_refused(self, tmp_path, capsys, command, field, value, extra):
        doc = _minimal_doc()
        block = doc["portfolio"]["contracts"][0] if field == ("spread",) else doc["portfolio"]
        block[field[0]] = value
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", str(cfg), "--out-dir", str(out),
                    *extra) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: the lattice pass is not finite" in err
        assert "in state 0 at t = " in err
        assert list(out.iterdir()) == []

    def test_non_finite_pass_fails_its_sweep_point(self, tmp_path, capsys):
        doc = _minimal_doc()
        doc["portfolio"]["contracts"][0]["spread"] = 1e308
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert _run("sweep", "--config", str(cfg), "--out-dir", str(out), "--param", "alpha",
                    "--points", "2", "--grid-points", "50") == cli.EXIT_CONFIG
        assert "every sweep point failed" in capsys.readouterr().err
        for row in _read_csv(out / "sweep_alpha.csv"):
            assert row["status"].startswith(
                "failed(ConfigError: the lattice pass is not finite")

    def test_non_finite_spread_refused(self, tmp_path, capsys):
        doc = _minimal_doc()
        doc["portfolio"]["contracts"][0]["spread"] = float("nan")
        cfg = _write_config(tmp_path, doc)
        assert _run("xva", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "100") == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    def test_number_given_as_string_refused(self, tmp_path, capsys):
        doc = _minimal_doc()
        doc["portfolio"]["maturity"] = "1"
        cfg = _write_config(tmp_path, doc)
        assert _run("price", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "100") == cli.EXIT_CONFIG
        assert "portfolio.maturity must be a number, got '1'" in capsys.readouterr().err

    def test_fractional_direction_refused(self, tmp_path, capsys):
        # 1.5 is not truncated to +1: only +1 and -1 are directions
        doc = _minimal_doc()
        doc["portfolio"]["contracts"][0]["direction"] = 1.5
        cfg = _write_config(tmp_path, doc)
        assert _run("price", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "100") == cli.EXIT_CONFIG
        assert "contract.direction must be +1 or -1, got 1.5" in capsys.readouterr().err

    _MALFORMED_BLOCKS = [
        (("price",), ("contagion",), [], "contagion must be a JSON object"),
        (("sweep", "--param", "a30"), ("contagion",), [], "contagion must be a JSON object"),
        (("price",), ("rates",), [0.001], "rates must be a JSON object"),
        (("price",), ("counterparty_band",), [1], "counterparty_band must be a JSON object"),
        (("price",), ("portfolio",), "p", "portfolio must be a JSON object"),
        (("price",), ("portfolio", "collateral"), [], "collateral must be a JSON object"),
        (("price",), ("portfolio", "contracts", 0), 1.0, "contract must be a JSON object"),
        (("price",), ("portfolio", "contracts"), 5, "contracts must be a list"),
        (("price",), ("physical_contagion",), [1], "physical_contagion must be a JSON object"),
        (("price",), ("contagion", "reference_tables"), [{"values": [[]]}], "nonempty list"),
    ]

    @pytest.mark.parametrize("command, where, bad, message", _MALFORMED_BLOCKS,
                             ids=[f"{c[0]}-{'.'.join(map(str, w))}"
                                  for c, w, _, _ in _MALFORMED_BLOCKS])
    def test_malformed_block_refused(self, tmp_path, capsys, command, where, bad, message):
        doc = _minimal_doc()
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = bad
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert _run(*command, "--config", str(cfg), "--out-dir", str(out),
                    "--grid-points", "50") == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_multi_name_initial_margin_refused(self, tmp_path, capsys):
        doc = _minimal_doc()
        doc["portfolio"]["contracts"] *= 2
        doc["portfolio"]["collateral"] = {"beta": 0.5}
        cfg = _write_config(tmp_path, doc)
        assert _run("price", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "100") == cli.EXIT_CONFIG
        assert "VaR callback" in capsys.readouterr().err

    def test_zero_intensity_entity_fails_validation(self, tmp_path):
        doc = _minimal_doc()
        doc["portfolio"]["contracts"] *= 2
        doc["contagion"]["reference_tables"] = [0.2, 0.0]
        cfg = _write_config(tmp_path, doc)
        assert _run("price", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "100") == cli.EXIT_ASSUMPTION

    def test_model_true_rate_outside_band_fails_validation(self, tmp_path, capsys):
        # h_C + r_D is 0.201 with no default and 0.301 after one: above mu_upper
        doc = _minimal_doc()
        doc["portfolio"]["contracts"] *= 2
        doc["contagion"]["a23"] = 0.1
        doc["counterparty_band"]["mu_true"] = "model"
        cfg = _write_config(tmp_path, doc)
        args = ("price", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                "--grid-points", "100")
        assert _run(*args) == cli.EXIT_ASSUMPTION
        assert "mu_C_true <= mu_C_upper" in capsys.readouterr().err
        assert _run(*args, "--allow-assumption-violation") == cli.EXIT_OK

    def test_oversized_lattice_refused(self, tmp_path, capsys, monkeypatch):
        # five names over 201 nodes: 6 * 201 cells homogeneous, 32 * 201 full
        monkeypatch.setattr(engine, "MAX_LATTICE_CELLS", 2000)
        args = ("price", "--config", str(FIVE_NAME), "--grid-points", "200",
                "--allow-assumption-violation")
        out = tmp_path / "full"
        assert _run(*args, "--out-dir", str(out), "--full-lattice") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "N = 5" in err and "32 states" in err and "2000" in err
        assert not (out / "clean.csv").exists()
        assert _run(*args, "--out-dir", str(tmp_path / "homo")) == cli.EXIT_OK

    def test_lattice_bound_checked_before_the_grid_is_built(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(engine, "MAX_LATTICE_CELLS", 2000)
        built = []
        build_grid = engine.build_grid

        def spy(*args, **kwargs):
            built.append(build_grid(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(engine, "build_grid", spy)
        assert _run("price", "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path / "o"),
                    "--grid-points", "1000") == cli.EXIT_CONFIG
        assert "N = 1 names has 2 states; over 1002 grid nodes" in capsys.readouterr().err
        assert built == []  # refused before any grid existed
        assert _run("price", "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path / "p"),
                    "--grid-points", "998") == cli.EXIT_OK
        assert [len(grid) for grid in built] == [1000]

    def test_collapsed_sweep_grid_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run("sweep", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--param", "band_width", "--span", "0", "--points", "3") == cli.EXIT_CONFIG
        assert "sweep grid must be strictly increasing" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_assumption_violation_gate(self, tmp_path):
        out = tmp_path / "out"
        assert _run("price", "--config", str(FIVE_NAME), "--out-dir", str(out),
                    "--grid-points", "200") == cli.EXIT_ASSUMPTION
        assert _run("price", "--config", str(FIVE_NAME), "--out-dir", str(out),
                    "--grid-points", "200",
                    "--allow-assumption-violation") == cli.EXIT_OK


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            assert _run("xva", "--config", str(SINGLE_NAME),
                        "--out-dir", str(out), "--grid-points", "300") == 0
        for name in ("xva.csv", "regime.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        manifests = [json.loads((out / "manifest.json").read_text())
                     for out in outs]
        for man in manifests:
            man.pop("wall_clock_s")
        assert manifests[0] == manifests[1]


def test_cli_import_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, rxva.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # run_sweep imports its pool when it runs, so a CLI start does not pay for it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, rxva.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_benchmark_trace_hooks_bind():
    # the benchmark's tracer wraps engine, CLI, sweep and oracle names by
    # attribute; a refactor that unbinds one makes install raise
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import trace_child; trace_child.install(trace_child.Tracer())"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_trace_hooks_run(tmp_path):
    # the tracer's after-hooks read attributes of the engine's objects (such
    # as space.homogeneous and space.n); a traced toy run must end with rc 0
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(result), "xva",
         "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path / "out"), "--grid-points", "20"],
        env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text(encoding="utf-8"))["rc"] == 0
