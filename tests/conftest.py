"""Shared fixtures: benchmark configurations and solved engine results."""

from __future__ import annotations

from pathlib import Path

import pytest

from rxva.engine import run_engine
from rxva.market import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SINGLE_NAME = CONFIG_DIR / "single_name_switching.json"
FIVE_NAME = CONFIG_DIR / "five_name_benchmark.json"
TWO_CLASS = CONFIG_DIR / "two_class_contagion.json"


@pytest.fixture(scope="session")
def single_name_setup():
    return load_config(SINGLE_NAME)


@pytest.fixture(scope="session")
def five_name_setup():
    return load_config(FIVE_NAME)


@pytest.fixture(scope="session")
def single_name_result(single_name_setup):
    cfg, model, portfolio, model_P = single_name_setup
    return run_engine(
        cfg, model, portfolio, model_P, variants=("actual", "upper", "lower")
    )


@pytest.fixture(scope="session")
def five_name_result(five_name_setup):
    cfg, model, portfolio, model_P = five_name_setup
    return run_engine(
        cfg, model, portfolio, model_P,
        variants=("actual", "upper", "lower"),
        allow_assumption_violation=True,
    )


@pytest.fixture(scope="session", params=[False, True], ids=["grouped", "full"])
def two_class_result(request):
    """The two-class config priced grouped (9 states) and ``--full-lattice`` (16)."""
    cfg, model, portfolio, model_P = load_config(TWO_CLASS)
    return run_engine(
        cfg, model, portfolio, model_P,
        variants=("actual", "upper", "lower"),
        force_full=request.param,
    )
