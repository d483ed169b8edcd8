"""Golden artifact digests: the shipped configs' artifacts, pinned bit for bit.

Every run of ``RUNS`` goes through ``rxva.cli.main`` in-process.
``golden_digests.json`` records, per run, the exit code, the sha256 of every
artifact (``manifest.json`` hashed without its ``wall_clock_s``) and the root
values v_hat(0) and u(0) of every variant the run solved. The test checks the
exit code and the digests exactly and the root values within 1e-12, so a
change of bits shows which contract it breaks: the bytes, or the 1e-12.

The bytes depend on the numpy and libm builds. The file records the Python
and numpy versions it was made with, and a digest failure names them.

Record the file again from the code in the working tree with

    PYTHONPATH=src python tests/test_golden.py

Recording it again changes the contract: say why, and name the runs whose
bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rxva.cli as cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
ROOT_TOLERANCE = 1e-12


def _matrix() -> dict[str, list[str]]:
    """Run name -> CLI arguments, without ``--out-dir``."""
    configs = {
        "single": [str(CONFIGS / "single_name_switching.json")],
        "five": [str(CONFIGS / "five_name_benchmark.json"),
                 "--grid-points", "300", "--allow-assumption-violation"],
    }
    commands = {"price": [], "xva": [], "verify": ["--paths", "20000"]}
    variants = {"plain": [], "full": ["--full-lattice"], "gamma-1": ["--gamma", "-1"]}
    runs = {
        f"{config}/{command}/{variant}": [command, "--config", *c_args, *v_args, *extra]
        for config, c_args in configs.items()
        for command, extra in commands.items()
        for variant, v_args in variants.items()
    }
    # the benchmark's sweep workload
    runs["five/sweep-a30"] = ["sweep", "--config", str(CONFIGS / "five_name_benchmark.json"),
                              "--param", "a30", "--points", "9",
                              "--allow-assumption-violation"]
    # the multi-name config inside the paper's assumptions, run without the override
    two = str(CONFIGS / "two_class_contagion.json")
    runs.update({f"two/{command}/{variant}": [command, "--config", two, *v_args, *extra]
                 for command, extra in commands.items()
                 for variant, v_args in (("plain", []), ("full", ["--full-lattice"]))})
    runs["two/sweep-a33"] = ["sweep", "--config", two, "--param", "a33", "--points", "9"]
    return runs


RUNS = _matrix()


def _roots_of_result(result) -> dict:
    return {"v_hat_0": float(result.clean[0, 0]),
            "u_0": {which: float(x.surface[0, 0]) for which, x in result.xva.items()}}


def _roots_of_row(row) -> dict:
    return {"v_hat_0": row.v_hat_0,
            "u_0": {w: getattr(row, f"xva_{w}") for w in ("actual", "upper", "lower")}}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_clock_s")
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(name: str, out_dir: Path) -> dict:
    """One run of the matrix: its exit code, artifact digests and root values.

    The root values are read from the results ``run_engine`` and
    ``run_sweep`` hand back to the CLI; a sweep gives one entry per point.
    """
    roots = []
    engine, sweep = cli.run_engine, cli.run_sweep

    def engine_spy(*args, **kwargs):
        result = engine(*args, **kwargs)
        roots.append(_roots_of_result(result))
        return result

    def sweep_spy(*args, **kwargs):
        result = sweep(*args, **kwargs)
        roots.extend(_roots_of_row(row) for row in result.rows)
        return result

    cli.run_engine, cli.run_sweep = engine_spy, sweep_spy
    try:
        code = cli.main([*RUNS[name], "--out-dir", str(out_dir)])
    finally:
        cli.run_engine, cli.run_sweep = engine, sweep
    digests = {p.name: _digest(p) for p in sorted(out_dir.iterdir())}
    return {"exit_code": code, "sha256": digests, "roots": roots}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_matrix_is_recorded(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_golden(golden, name, tmp_path):
    want = golden["runs"][name]
    got = run(name, tmp_path)
    assert got["exit_code"] == want["exit_code"]
    assert len(got["roots"]) == len(want["roots"])
    for g, w in zip(got["roots"], want["roots"]):
        assert abs(g["v_hat_0"] - w["v_hat_0"]) <= ROOT_TOLERANCE, (g, w)
        assert g["u_0"].keys() == w["u_0"].keys()
        for which in w["u_0"]:
            assert abs(g["u_0"][which] - w["u_0"][which]) <= ROOT_TOLERANCE, (which, g, w)
    assert got["sha256"] == want["sha256"], (
        f"artifact bytes of {name} moved; recorded with {golden['versions']}, "
        f"run with {_versions()}"
    )


def record() -> None:
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out:
            runs[name] = run(name, Path(out))
    GOLDEN.write_text(json.dumps({"versions": _versions(), "runs": runs}, indent=1) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
