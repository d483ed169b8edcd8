"""The AC-08 timing ratio, computed as ``tests/test_acceptance.py`` does.

Run as ``python perfbench/ac08_child.py <repeats> <grid points> <five-name
config>`` with ``src`` on ``PYTHONPATH``. Each repeat solves the config with the
XVA triple on the homogeneous lattice, then on the full 2^5 lattice, and
divides ``sum(EngineResult.timings)`` of the second by that of the first.
Prints the ratios as a JSON list.
"""

import json
import sys

from rxva.engine import run_engine
from rxva.market import load_config

TRIPLE = ("actual", "upper", "lower")

if __name__ == "__main__":
    repeats, grid_points = int(sys.argv[1]), int(sys.argv[2])
    cfg, model, portfolio, model_P = load_config(sys.argv[3])
    ratios = []
    for _ in range(repeats):
        homo = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                          grid_points=grid_points, allow_assumption_violation=True)
        full = run_engine(cfg, model, portfolio, model_P, variants=TRIPLE,
                          grid_points=grid_points, force_full=True,
                          allow_assumption_violation=True)
        ratios.append(sum(full.timings.values()) / sum(homo.timings.values()))
    print(json.dumps(ratios))
