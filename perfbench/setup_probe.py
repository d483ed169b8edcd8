"""Set-up probe: import the CLI, then load and validate one config.

Run as ``python perfbench/setup_probe.py <config.json>`` with ``src`` on
``PYTHONPATH``; the benchmark times it from spawn to exit as ``setup_s``.
"""

import sys

import rxva.cli
from rxva.market import load_config, validate_assumptions

if __name__ == "__main__":
    cfg, model, portfolio, _ = load_config(sys.argv[1])
    validate_assumptions(cfg, model, horizon=portfolio.maturity)
