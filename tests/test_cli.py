"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rxva.cli as cli
import rxva.engine as engine
import rxva.xva as xva
from rxva.sweeps import SWEEPABLE

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


def _case_ids(cases):
    """Each case's command and key path; a repeated one also names its value's type."""
    ids = []
    for command, where, bad, _message in cases:
        name = f"{command[0]}-{'.'.join(map(str, where))}"
        ids.append(f"{name}-{type(bad).__name__}" if name in ids else name)
    return ids


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

    def test_empty_portfolio_passes(self, tmp_path):
        # a lattice with no class: the drift identity's default counts are
        # still one per state
        doc = json.loads(SINGLE_NAME.read_text(encoding="utf-8"))
        doc["portfolio"]["contracts"] = []
        out = tmp_path / "out"
        assert _run("verify", "--config", str(_write_config(tmp_path, doc)),
                    "--out-dir", str(out), "--grid-points", "100",
                    "--paths", "1000") == cli.EXIT_OK
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["checks"]["drift_identity"]["max_error"] == 0.0

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_estimate_refused(self, tmp_path, capsys):
        # the pass stays finite, but the sampled losses' sum overflows
        doc = _minimal_doc()
        doc["portfolio"]["contracts"][0]["loss"] = 1e308
        out = tmp_path / "out"
        code = _run("verify", "--config", str(_write_config(tmp_path, doc)),
                    "--out-dir", str(out), "--grid-points", "5", "--paths", "50")
        assert code == cli.EXIT_CONFIG
        assert ("configuration error: the clean_value check is not finite: mc = inf"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []


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
        joint_pass = xva._joint_pass
        monkeypatch.setattr(xva, "_joint_pass", lambda *a: (calls.append(a), joint_pass(*a))[1])
        assert _run(*command, "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path),
                    "--grid-points", "200") == cli.EXIT_OK
        assert len(calls) == 1

    def test_one_compile_per_verify_run(self, tmp_path, monkeypatch):
        # the drift identity runs the pass's own step, so the run compiles
        # the full lattice's step once and no driver of its own
        sources = []

        def counting_compile(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(xva, "compile", counting_compile, raising=False)
        _run("verify", "--config", str(FIVE_NAME), "--out-dir", str(tmp_path), "--full-lattice",
             "--grid-points", "50", "--paths", "500", "--allow-assumption-violation")
        report = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
        assert "drift_identity" in report["checks"]
        assert len(sources) == 1


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert _run("price", "--config", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path / "o")) == cli.EXIT_CONFIG

    def test_malformed_config(self, tmp_path, capsys):
        doc = json.loads(SINGLE_NAME.read_text(encoding="utf-8"))
        doc["portfolio"]["maturity"] = 10 ** 400  # an integer beyond the float range
        documents = [
            b"{",
            b'{"rates": "\xff"}',  # not UTF-8
            b'{"rates": ' + b"1" * 5000 + b"}",  # beyond the integer digit limit
            b"[" * 100_000 + b"]" * 100_000,  # nested beyond the recursion limit
            json.dumps(doc).encode(),
        ]
        for i, text in enumerate(documents):
            bad = tmp_path / f"bad{i}.json"
            bad.write_bytes(text)
            assert _run("price", "--config", str(bad),
                        "--out-dir", str(tmp_path / "o")) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "configuration error" in err
        # the out-of-range integer is named by its size, not echoed digit by digit
        assert "portfolio.maturity must be finite, got an integer of 401 digits" in err
        assert len(err) < 200

    def test_unusable_out_dir(self, tmp_path, capsys):
        afile = tmp_path / "file"
        afile.write_text("", encoding="utf-8")
        for out in (afile, afile / "sub"):
            assert _run("price", "--config", str(SINGLE_NAME),
                        "--out-dir", str(out)) == cli.EXIT_CONFIG
            assert "cannot create the output directory" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("command, blocked", [("price", "clean.csv"),
                                                  ("xva", "manifest.json")])
    def test_unwritable_artifact_refused(self, tmp_path, capsys, command, blocked):
        # a directory in an artifact's place makes its write fail
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert _run(command, "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--grid-points", "50") == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"configuration error: cannot write {out / blocked}: Is a directory\n"

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
        ("price", ("spread",), 1e308, (), "clean"), ("xva", ("spread",), 1e308, (), "clean"),
        ("price", ("maturity",), 1e300, ("--grid-points", "5"), "clean"),
        # two nodes near the float maximum: their sum overflows, their halves' does not
        ("xva", ("maturity",), 1e308, ("--grid-points", "5"), "clean"),
        ("xva", ("rates", "r_f_plus"), 1e308, ("--allow-assumption-violation",), "actual"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, field, value, extra, surface", _NON_FINITE_PASS,
                             ids=["price-spread", "xva-spread", "price-maturity",
                                  "xva-maturity-max", "xva-r_f_plus"])
    def test_non_finite_pass_refused(self, tmp_path, capsys, command, field, value, extra,
                                     surface):
        doc = _minimal_doc()
        if field == ("spread",):
            block = doc["portfolio"]["contracts"][0]
        else:
            block = doc[field[0]] if len(field) == 2 else doc["portfolio"]
        block[field[-1]] = value
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", str(cfg), "--out-dir", str(out),
                    *extra) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: the lattice pass is not finite" in err
        assert "in state 0 at t = " in err
        assert f" of the {surface} surface" in err
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
        (("price",), ("contagion", "reference_tables"), {"values": [0.3]},
         "reference_tables must be a list"),
        (("price",), ("contagion", "reference_tables"), 0.3, "reference_tables must be a list"),
        (("price",), ("contagion",),
         {"a10": 0.2, "a20": 0.2, "reference_table": 0.3, "reference_tables": [0.3]},
         "both reference_table and reference_tables"),
    ]

    @pytest.mark.parametrize("command, where, bad, message", _MALFORMED_BLOCKS,
                             ids=_case_ids(_MALFORMED_BLOCKS))
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

    def test_negative_spread_with_initial_margin_refused(self, tmp_path, capsys):
        # direction +1 would carry a margin of beta * S * delta_eff < 0 where
        # no default within the window reaches probability 1 - q
        doc = _minimal_doc()
        doc["portfolio"]["contracts"] = [{"spread": -0.05, "loss": 0.5, "direction": 1}]
        doc["portfolio"]["maturity"] = 2.0
        doc["portfolio"]["collateral"] = {"beta": 1.0, "delta": 0.04, "q": 0.99}
        doc["contagion"]["a30"] = 0.3
        cfg, out = _write_config(tmp_path, doc), tmp_path / "o"
        assert _run("price", "--config", str(cfg), "--out-dir", str(out),
                    "--grid-points", "200") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "spread is -0.05" in err and "beta = 1.0" in err
        assert not (out / "clean.csv").exists()

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

    def test_piece_before_time_zero_is_not_validated(self, tmp_path, capsys):
        # the zero-intensity piece [-2, -1) ends before t = 0: nothing reads
        # it, so the config prices as the shipped one, bit for bit
        doc = json.loads(SINGLE_NAME.read_text(encoding="utf-8"))
        doc["contagion"]["reference_tables"] = [
            {"breaks": [-2.0, -1.0, 2.0], "values": [0.5, 0.0, 0.2999, 0.0999]}]
        outs = tmp_path / "early", tmp_path / "shipped"
        for config, out in zip((_write_config(tmp_path, doc), SINGLE_NAME), outs):
            assert _run("xva", "--config", str(config), "--out-dir", str(out),
                        "--grid-points", "300") == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        for name in ("xva.csv", "regime.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_negative_physical_intensity_fails_validation(self, tmp_path, capsys):
        # the initial margin reads the physical model: a negative piece that
        # meets [0, T) is refused as a negative risk-neutral one is, and a
        # piece that ends before t = 0 is not read
        doc = json.loads(SINGLE_NAME.read_text(encoding="utf-8"))
        doc["portfolio"]["collateral"]["beta"] = 0.5
        doc["physical_contagion"] = {"investor_table": 0.2, "counterparty_table": 0.2,
                                     "reference_tables": [-0.5]}
        out = tmp_path / "o"
        args = ("price", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out),
                "--grid-points", "100")
        assert _run(*args) == cli.EXIT_ASSUMPTION
        assert "physical_contagion" in capsys.readouterr().err
        assert not (out / "margins.csv").exists()
        assert _run(*args, "--allow-assumption-violation") == cli.EXIT_OK
        doc["physical_contagion"]["reference_tables"] = [{"breaks": [-1.0], "values": [-0.5, 0.3]}]
        args = ("price", "--config", str(_write_config(tmp_path, doc)), "--out-dir",
                str(tmp_path / "early"), "--grid-points", "100")
        assert _run(*args) == cli.EXIT_OK

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

    @pytest.mark.parametrize("n, grid_points", [(14, "100"), (20, "1")])
    def test_oversized_step_refused(self, tmp_path, capsys, monkeypatch, n, grid_points):
        # 2^n states with distinct spreads: the cell bound admits both grids,
        # but the clean value's step alone is over 12 million characters
        def fail(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(xva, "_joint_pass", fail)
        monkeypatch.setattr(engine, "margin_schedule", fail)
        doc = _minimal_doc()
        con = doc["portfolio"]["contracts"][0]
        doc["portfolio"]["contracts"] = [dict(con, spread=0.02 + 0.001 * i) for i in range(n)]
        out = tmp_path / "out"
        assert _run("price", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out),
                    "--grid-points", grid_points) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"N = {n} names ({2 ** n} states)" in err
        assert f"over the bound of {engine.MAX_STEP_SOURCE}" in err
        assert list(out.iterdir()) == []

    def test_paths_beyond_the_oracles_memory_refused(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(cli, "run_engine", fail)
        out = tmp_path / "out"
        assert _run("verify", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--paths", str(10 ** 9)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--paths 1000000000 over 1 names exceeds the oracle's bound" in err
        assert f"at most {cli.MAX_PATH_SLOTS // 2} paths fit" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [SINGLE_NAME, FIVE_NAME])
    def test_a_million_paths_admitted(self, tmp_path, monkeypatch, config):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "run_engine", reached)
        with pytest.raises(Reached):
            _run("verify", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                 "--paths", "1000000")

    def test_collapsed_sweep_grid_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run("sweep", "--config", str(SINGLE_NAME), "--out-dir", str(out),
                    "--param", "band_width", "--span", "0", "--points", "3") == cli.EXIT_CONFIG
        assert "sweep grid must be strictly increasing" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_maturity_too_short_for_the_grid_refused(self, tmp_path, capsys):
        doc = _minimal_doc()
        doc["portfolio"]["maturity"] = 5e-324  # the least positive float
        out = tmp_path / "o"
        assert _run("price", "--config", str(_write_config(tmp_path, doc)), "--out-dir",
                    str(out), "--grid-points", "20") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: maturity 5e-324 ")
        assert "20 grid steps" in err
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


# ---------------------------------------------------------------------------
# Edited configs through the CLI
# ---------------------------------------------------------------------------

_DELETE = object()
# what a leaf edit writes: zeros of either sign, extreme magnitudes and other
# numbers, or a string, a boolean, null, a list or a malformed table
_NUMBERS = (0, -0.0, -1, 0.5, 2.0, 1e-300, 1e308)
_OTHERS = ("0.1", "model", "", True, False, None, [], [0.5],
           {"breaks": [0.5], "values": [0.1]}, {"breaks": [0.5], "values": []},
           {"breaks": [0.9, 0.1], "values": [0.1, 0.2, 0.3]}, {"values": [[]]})


def _entries(node, path=()):
    """``(key path, value)`` of every entry below ``node``, containers and leaves."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _entries(child, path + (key,))


@st.composite
def _edited_config(draw):
    """A shipped config with one to three edits, each replacing a leaf or
    deleting an entry."""
    with open(draw(st.sampled_from((SINGLE_NAME, FIVE_NAME))), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.one_of(st.just(_DELETE), st.sampled_from(_NUMBERS),
                               st.sampled_from(_OTHERS)))
        paths = [path for path, old in _entries(doc)
                 if value is _DELETE or not isinstance(old, (dict, list))]
        *parents, key = draw(st.sampled_from(paths))
        parent = reduce(lambda node, k: node[k], parents, doc)
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return doc


_COMMANDS = st.one_of(
    st.just(["price"]), st.just(["xva"]), st.just(["verify", "--paths", "50"]),
    st.sampled_from(SWEEPABLE).map(lambda param: ["sweep", "--param", param, "--points", "2"]),
)


def _non_finite_cells(out_dir: Path, doc: dict) -> list[str]:
    """Every artifact cell of a run that reads nan or inf, except the sweep
    cells that are not applicable: ``xva_actual`` without mu_true,
    ``xi_ref_val`` with no contract, and every value cell of a failed row."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    exempt = set()
    if doc["counterparty_band"].get("mu_true") is None:
        exempt.add("xva_actual")
    if not doc["portfolio"]["contracts"]:
        exempt.add("xi_ref_val")
    bad = []
    for name in ["manifest.json", *manifest["outputs"]]:
        path = out_dir / name
        if name.endswith(".json"):
            json.loads(path.read_text(encoding="utf-8"),
                       parse_constant=lambda word, name=name: bad.append(f"{name}: {word}"))
            continue
        for row in _read_csv(path):
            if row.get("status", "ok") != "ok":
                continue
            for column, cell in row.items():
                try:
                    number = float(cell)
                except ValueError:  # a regime label or the status
                    continue
                if not math.isfinite(number) and column not in exempt:
                    bad.append(f"{name}: {column} = {cell}")
    return bad


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_edited_config(), command=_COMMANDS, allow=st.booleans())
def test_edited_configs_exit_cleanly(doc, command, allow):
    # no edit of a shipped config makes the CLI raise, exit with a code it
    # does not document, warn, or write a non-finite cell where a number is due
    with tempfile.TemporaryDirectory() as tmp:
        config, out = _write_config(Path(tmp), doc), Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = _run(command[0], "--config", str(config), "--out-dir", str(out),
                        "--grid-points", "5", *command[1:],
                        *["--allow-assumption-violation"] * allow)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ASSUMPTION, cli.EXIT_VERIFY)
        if code == cli.EXIT_OK:
            assert _non_finite_cells(out, doc) == []


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
    # run_sweep forks its workers with os.fork, so no CLI start loads a process
    # pool; the manifest's digest needs no hashlib, so none maps OpenSSL either
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, rxva.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent', '_hashlib')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", [("price",), ("xva",), ("verify", "--paths", "2000")])
def test_cli_run_leaves_openssl_unloaded(tmp_path, command):
    # config_sha256 is CPython's own SHA-256: the digest hashlib gives, with
    # no _hashlib (OpenSSL) loaded by the run; verify imports numpy.random
    # with _hashlib held out, and draws what it draws with _hashlib loaded
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = tmp_path / "out"
    probe = ("import sys, rxva.cli; rc = rxva.cli.main(sys.argv[1:]); "
             "print(rc, '_hashlib' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *command, "--config", str(SINGLE_NAME),
         "--out-dir", str(out), "--grid-points", "50"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == hashlib.sha256(SINGLE_NAME.read_bytes()).hexdigest()
    if command[0] == "verify":
        assert "_hashlib" in sys.modules  # hashlib, imported by this module
        assert _run(*command, "--config", str(SINGLE_NAME), "--out-dir",
                    str(tmp_path / "in_process"), "--grid-points", "50") == 0
        assert (out / "verify.json").read_bytes() == \
            (tmp_path / "in_process" / "verify.json").read_bytes()


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


@pytest.mark.parametrize("args, counts", [
    (["xva", "--grid-points", "20"], {}),
    # the clean-only run: the tracer's clean hook binds solve_clean
    (["price", "--grid-points", "20"], {"clean.edge_updates": 84}),
    # the benchmark's audit run: 100,000 clean and closeout paths and
    # 2 x 10,000 pathwise ones; seed 0 passes (test_benchmark_audit_seeds_pass)
    (["verify", "--paths", "100000", "--seed", "0"],
     {"oracle.paths": 120_000, "oracle.checks_failed": 0}),
], ids=["xva", "price", "verify"])
def test_benchmark_trace_hooks_run(tmp_path, args, counts):
    # the tracer's after-hooks read attributes of the engine's and the
    # oracle's objects (such as space.n and the verify report); a traced run
    # must end with rc 0
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(result), args[0],
         "--config", str(SINGLE_NAME), "--out-dir", str(tmp_path / "out"), *args[1:]],
        env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text(encoding="utf-8"))
    assert trace["rc"] == 0
    assert {name: trace["counts"].get(name) for name in counts} == counts


def test_pass_timer_prints_one_line_per_workload():
    # scripts/pass_timer.py rebinds compile and _joint_pass in rxva.xva, so
    # a refactor of the lattice pass can break it without any other test;
    # S9 times sweeps.run_sweep, workers included
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "pass_timer.py"), "--repeat", "1", "W1", "S9"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    line, sweep = map(json.loads, lines)
    assert set(line) == {"workload", "states", "steps", "repeat", "pass_s", "compile_s",
                         "step_s", "source_chars"}
    assert (line["workload"], line["states"], line["repeat"]) == ("W1", 2, 1)
    assert line["source_chars"] > 0
    assert set(sweep) == {"workload", "points", "failed", "repeat", "sweep_s"}
    assert (sweep["workload"], sweep["points"], sweep["failed"], sweep["repeat"]) == \
        ("S9", 9, 0, 1)
    assert sweep["sweep_s"] > 0.0


def test_pass_timer_baseline_prints_paired_medians():
    # --baseline times each workload from the baseline's src and from this
    # tree's in alternating subprocesses; here both are this tree
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "pass_timer.py"),
         "--baseline", ".", "--repeat", "1", "W1", "S9"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, key in zip(map(json.loads, lines), ("pass_s", "sweep_s")):
        assert set(line) == {"workload", "rounds", f"baseline_{key}", key, "faster_rounds",
                             "baseline_peak_rss_mb", "peak_rss_mb", "lower_rss_rounds"}
        assert (line["workload"], line["rounds"]) == ("W1" if key == "pass_s" else "S9", 1)
        assert line["faster_rounds"] in (0, 1) and line["lower_rss_rounds"] in (0, 1)
        assert line[f"baseline_{key}"] > 0.0 and line[key] > 0.0
        assert line["baseline_peak_rss_mb"] > 0.0 and line["peak_rss_mb"] > 0.0


def test_pass_timer_times_verify():
    # V1 times oracle.verify on W1's result at 100,000 paths, alone and
    # paired with a baseline checkout (here this tree)
    root = Path(cli.__file__).resolve().parents[2]
    script = str(root / "scripts" / "pass_timer.py")
    lines = []
    for args in (["--repeat", "1", "V1"], ["--baseline", ".", "--repeat", "1", "V1"]):
        proc = subprocess.run([sys.executable, script, *args], cwd=root, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1
        lines.append(json.loads(proc.stdout))
    alone, paired = lines
    assert set(alone) == {"workload", "paths", "repeat", "verify_s", "paths_per_s"}
    assert (alone["workload"], alone["paths"], alone["repeat"]) == ("V1", 120_000, 1)
    assert alone["paths_per_s"] == pytest.approx(120_000 / alone["verify_s"])
    assert set(paired) == {"workload", "rounds", "baseline_verify_s", "verify_s", "faster_rounds",
                           "baseline_peak_rss_mb", "peak_rss_mb", "lower_rss_rounds"}
    assert (paired["workload"], paired["rounds"]) == ("V1", 1)
    assert paired["faster_rounds"] in (0, 1)
    assert paired["baseline_verify_s"] > 0.0 and paired["verify_s"] > 0.0


def test_pass_timer_times_the_drift_identity():
    # D1 times oracle.drift_identity_error on W1's result, alone and paired
    # with a baseline checkout (here this tree)
    root = Path(cli.__file__).resolve().parents[2]
    script = str(root / "scripts" / "pass_timer.py")
    lines = []
    for args in (["--repeat", "1", "D1"], ["--baseline", ".", "--repeat", "1", "D1"]):
        proc = subprocess.run([sys.executable, script, *args], cwd=root, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1
        lines.append(json.loads(proc.stdout))
    alone, paired = lines
    assert set(alone) == {"workload", "states", "repeat", "drift_s", "max_error"}
    assert (alone["workload"], alone["states"], alone["repeat"]) == ("D1", 2, 1)
    assert alone["drift_s"] > 0.0 and alone["max_error"] < 1e-15
    assert set(paired) == {"workload", "rounds", "baseline_drift_s", "drift_s", "faster_rounds",
                           "baseline_peak_rss_mb", "peak_rss_mb", "lower_rss_rounds"}
    assert (paired["workload"], paired["rounds"]) == ("D1", 1)
    assert paired["faster_rounds"] in (0, 1)
    assert paired["baseline_drift_s"] > 0.0 and paired["drift_s"] > 0.0


def test_pass_timer_times_the_two_class_config():
    # W5 times the pass on the two-class config, D5 the drift identity on it
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "pass_timer.py"), "--repeat",
                           "1", "W5", "D5"], cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run, drift = map(json.loads, proc.stdout.splitlines())
    assert (run["workload"], run["states"], run["steps"]) == ("W5", 9, 2000)
    assert run["pass_s"] > run["compile_s"] > 0.0
    assert (drift["workload"], drift["states"]) == ("D5", 9)
    assert drift["drift_s"] > 0.0 and drift["max_error"] < 1e-15


def test_pass_timer_times_a_cli_start():
    # C1 runs `python -m rxva.cli price` on the single-name config in a fresh
    # process, alone and paired with a baseline checkout (here this tree)
    root = Path(cli.__file__).resolve().parents[2]
    script = str(root / "scripts" / "pass_timer.py")
    lines = []
    for args in (["--repeat", "1", "C1"], ["--baseline", ".", "--repeat", "1", "C1"]):
        proc = subprocess.run([sys.executable, script, *args], cwd=root, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1
        lines.append(json.loads(proc.stdout))
    alone, paired = lines
    assert set(alone) == {"workload", "repeat", "wall_s", "peak_rss_mb"}
    assert (alone["workload"], alone["repeat"]) == ("C1", 1)
    assert alone["wall_s"] > 0.0 and alone["peak_rss_mb"] > 0.0
    assert set(paired) == {"workload", "rounds", "baseline_wall_s", "wall_s",
                           "baseline_peak_rss_mb", "peak_rss_mb", "faster_rounds",
                           "lower_rss_rounds"}
    assert (paired["workload"], paired["rounds"]) == ("C1", 1)
    assert paired["faster_rounds"] in (0, 1) and paired["lower_rss_rounds"] in (0, 1)
    assert paired["baseline_peak_rss_mb"] > 0.0 and paired["peak_rss_mb"] > 0.0


def test_pass_timer_peak_is_the_cli_process_own():
    # Linux carries the spawner's high-water mark into a child's ru_maxrss,
    # so C1 run after W4 in one process must still read what C1 alone reads
    root = Path(cli.__file__).resolve().parents[2]
    script = str(root / "scripts" / "pass_timer.py")
    peaks = []
    for names in (["W4", "C1"], ["C1"]):
        proc = subprocess.run([sys.executable, script, "--repeat", "1", *names], cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert line["workload"] == "C1"
        peaks.append(line["peak_rss_mb"])
    after_w4, alone = peaks
    assert abs(after_w4 - alone) < 1.0, peaks


def test_pass_timer_times_the_audit_and_writer_starts():
    # C2 is the benchmark's audit run (verify --paths 100000 --seed 0) and X3
    # an xva run on the 32-state lattice, each a fresh CLI process
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "pass_timer.py"), "--repeat",
                           "1", "C2", "X3"], cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = list(map(json.loads, proc.stdout.splitlines()))
    assert [line["workload"] for line in lines] == ["C2", "X3"]
    for line in lines:
        assert set(line) == {"workload", "repeat", "wall_s", "peak_rss_mb"}
        assert line["repeat"] == 1 and line["wall_s"] > 0.0 and line["peak_rss_mb"] > 0.0


def test_pass_timer_records_a_baseline_run(tmp_path):
    # --record writes the printed lines with what identifies each side and
    # the host
    root = Path(cli.__file__).resolve().parents[2]
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "pass_timer.py"), "--baseline", ".",
         "--repeat", "1", "--record", str(record), "C1"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(record.read_text(encoding="utf-8"))
    assert doc["workloads"] == list(map(json.loads, proc.stdout.splitlines()))
    assert [line["workload"] for line in doc["workloads"]] == ["C1"]
    assert doc["baseline"] == doc["this"]  # both sides are this tree
    assert set(doc["this"]) == {"commit", "src_sha256"}
    assert len(doc["this"]["src_sha256"]) == 64
    assert set(doc["host"]) == {"cpu_count", "affinity", "python", "numpy"}
    assert doc["host"]["affinity"] >= 1 and doc["repeat"] == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_pass_timer_refuses_a_repeat_below_one(value):
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "pass_timer.py"),
                           "--repeat", value, "C1"], cwd=root, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --repeat: must be at least 1, got {value}" in proc.stderr
