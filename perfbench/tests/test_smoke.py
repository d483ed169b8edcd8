"""Harness smoke test: every workload at toy size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/tests``. It
is not part of the tier-1 suite (``testpaths`` names ``tests`` only) and gates
no timing: it checks that each run passes its output checks and that its
result line names exactly the metrics of ``BENCHMARK.json``, with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, import_times  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def test_spec_lists_the_metrics_the_harness_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_import_times_attribute_nested_imports_to_the_outer_library():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | rxva",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:       200 |        300 |     scipy.optimize",
        "import time:       400 |        400 |     numpy",
        "import time:        50 |        750 |   rxva.market",
        "import time:        20 |        900 | rxva.cli",
    ])
    assert import_times(log) == pytest.approx({"rxva": 910e-6, "scipy": 300e-6, "numpy": 400e-6})
