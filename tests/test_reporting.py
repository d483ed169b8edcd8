"""Lattice CSV writers: cell text, failed writes, memory."""

import os
import tracemalloc

import numpy as np
import pytest

from rxva.reporting import _write_lattice_csv, write_clean_csv, write_regime_csv
from rxva.xva import XvaResult


def test_special_values_are_written_as_python_formats_them(tmp_path):
    # each cell is the float's own `.12e` text: signed zero, infinities, nan
    # and a subnormal included
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    clean = np.array([[-0.0, np.inf, -np.inf, np.nan, 5e-324]])
    write_clean_csv(tmp_path / "clean.csv", grid, clean)
    assert (tmp_path / "clean.csv").read_bytes() == (
        b"time,state,value\n"
        b"0.000000000000e+00,0,-0.000000000000e+00\n"
        b"5.000000000000e-01,0,inf\n"
        b"1.000000000000e+00,0,-inf\n"
        b"1.500000000000e+00,0,nan\n"
        b"2.000000000000e+00,0,4.940656458412e-324\n"
    )


def test_a_directory_in_the_way_leaves_no_temporary_file(tmp_path):
    (tmp_path / "clean.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        write_clean_csv(tmp_path / "clean.csv", np.array([0.0, 1.0]), np.zeros((3, 2)))
    assert os.listdir(tmp_path) == ["clean.csv"]
    assert os.listdir(tmp_path / "clean.csv") == []


def test_a_failure_mid_file_leaves_the_old_file_and_no_temporary_file(tmp_path):
    # a regime code with no label fails on the second state, after the
    # first state's block was written
    path = tmp_path / "regime.csv"
    path.write_bytes(b"an earlier run's file\n")
    regime = np.array([[0, 1], [2, 7]], dtype=np.int8)
    results = {"upper": XvaResult(None, regime)}
    with pytest.raises(KeyError):
        write_regime_csv(path, np.array([0.0, 1.0]), results)
    assert os.listdir(tmp_path) == ["regime.csv"]
    assert path.read_bytes() == b"an earlier run's file\n"


def test_writes_one_state_at_a_time(tmp_path):
    # 256 states x 201 nodes x 3 columns is a 3.9 MB file; the writer holds
    # one state's rows and lines at a time (a traced peak of 84 KiB, the same
    # at 1,024 states), where formatting the whole file at once peaked at
    # about 15 MiB
    grid = np.linspace(0.0, 3.0, 201)
    columns = [np.random.default_rng(i).standard_normal((256, len(grid))) for i in range(3)]
    tracemalloc.start()
    try:
        _write_lattice_csv(tmp_path / "margins.csv", "time,state,vm,im,m", grid, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "margins.csv").stat().st_size > 3_000_000
    assert peak < 128 * 1024, peak
