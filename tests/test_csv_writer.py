"""The columnar CSV writer against the per-value row writer it replaced.

`row_writer` and `fmt` below are the previous writer, kept as the oracle:
`runner.write_csv` over numpy columns must write the same bytes as
`row_writer` over the rows those columns make, whatever the mix of dtypes,
and whether the rows fill a whole number of the writer's row blocks or not.
The same bytes must come out when a CSV's blocks are split among forked
workers, at any worker count.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, fail_forks_after
from ipslearn import runner
from ipslearn.runner import CSV_BLOCK_ROWS, write_csv


def fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def row_writer(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def assert_same_bytes(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "columns.csv", header, columns)
    row_writer(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-5,
                  0.1, 1.7976931348623157e308, 2.0**53 + 2.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
INT64 = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
                  st.integers(min_value=-(2**63), max_value=2**63 - 1))
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)


def column(kind, values):
    """One column of `kind` drawn from a list of values of that kind."""
    if kind == "float64":
        return np.array(values, dtype=np.float64)
    if kind == "float32":
        with np.errstate(over="ignore"):  # doubles beyond float32 become inf
            return np.array(values, dtype=np.float64).astype(np.float32)
    if kind == "int64":
        return np.array(values, dtype=np.int64)
    if kind == "uint8":
        return np.array(values, dtype=np.int64).astype(np.uint8)
    if kind == "bool":
        return np.array(values, dtype=bool)
    return np.array(values, dtype=str)


ELEMENTS = {
    "float64": FLOATS, "float32": FLOATS, "int64": INT64, "uint8": INT64,
    "bool": st.booleans(), "str": TEXT,
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_columns_write_the_bytes_of_the_row_writer(data, tmp_path_factory):
    n = data.draw(st.integers(0, 40), label="rows")
    kinds = data.draw(st.lists(st.sampled_from(sorted(ELEMENTS)), min_size=1, max_size=6))
    columns = [
        column(kind, data.draw(st.lists(ELEMENTS[kind], min_size=n, max_size=n), label=kind))
        for kind in kinds
    ]
    assert_same_bytes(tmp_path_factory.mktemp("csv"), columns)


# Small pools drawn with many repeats: the writer formats each distinct value
# of a block once, so equal values must share a text and values that only
# compare equal (-0.0 and 0.0) must not.  NaNs carry different payloads.
NAN64 = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                  0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)
NAN32 = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FC0BEEF], dtype=np.uint32).view(np.float32)
POOLS = {
    "float64": np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 0.1], NAN64]),
    "float32": np.concatenate([np.array([-0.0, 0.0, math.inf, -math.inf, 0.1], np.float32), NAN32]),
    "uint8": np.array([0, 1, 255], dtype=np.uint8),
    "bool": np.array([True, False]),
    "str": np.array(["", "theta1", "averaged", "é"]),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_repeated_values_write_the_bytes_of_the_row_writer(data, tmp_path_factory):
    n = data.draw(st.integers(0, 60), label="rows")
    kinds = data.draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        picks = st.lists(st.integers(0, len(POOLS[kind]) - 1), min_size=n, max_size=n)
        columns.append(POOLS[kind][np.array(data.draw(picks, label=kind), dtype=np.intp)])
    assert_same_bytes(tmp_path_factory.mktemp("csv"), columns)


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_block_boundaries(n, tmp_path):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
    columns = [
        np.arange(n, dtype=np.int64) - 2**62,
        floats,
        rng.random(n) < 0.5,
        np.array([f"p{i % 7}" for i in range(n)], dtype=str),
        np.arange(n) / 2,
    ]
    assert_same_bytes(tmp_path, columns)
    lines = (tmp_path / "columns.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""  # header, n rows, final newline


def test_columns_must_match_the_header_and_each_other(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["x", "y"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["x", "y"], [np.zeros(3)])


# ---------------------------------------------------------------------------
# Row blocks split among forked workers


def split_columns(n):
    """Columns of every dtype the program writes, with the floats that print
    unusually and an estimator label outside ASCII."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
    return [
        rng.random(n) < 0.5,
        np.arange(n, dtype=np.int64) - 2**62,
        floats,
        np.array(["θ-averaged", "triplet", "é"])[np.arange(n) % 3],
    ]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers that write_csv forks, with one block of 7 rows
    and no minimum number of blocks per worker."""
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 1)
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 38 rows: 6 blocks, the last not full; 13 rows: 2 blocks, fewer than 3
# workers; 29 rows: 5 blocks, the last of one row
@pytest.mark.parametrize("n", [38, 13, 29])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_blocks_write_the_bytes_of_the_row_writer(n, workers, forks, monkeypatch, tmp_path):
    monkeypatch.setattr(runner.models, "_WORKERS", workers)
    assert_same_bytes(tmp_path, split_columns(n))
    assert len(forks) == min(workers, -(-n // 7)) - 1
    assert_no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["columns.csv", "rows.csv"]


def test_shares_are_contiguous_runs_of_whole_blocks(forks, monkeypatch):
    monkeypatch.setattr(runner.models, "_WORKERS", 3)
    assert runner._shares(0) == [(0, 0)]
    assert runner._shares(13) == [(0, 7), (7, 13)]
    assert runner._shares(29) == [(0, 7), (7, 21), (21, 29)]
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 2)
    assert runner._shares(21) == [(0, 21)]  # 3 blocks: too few for 2 workers of 2
    assert runner._shares(22) == [(0, 14), (14, 22)]


def test_writes_inline_where_fork_is_not_used(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(runner.models, "_WORKERS", 3)
    monkeypatch.setattr(runner, "_FORK", False)
    assert_same_bytes(tmp_path, split_columns(38))
    assert forks == []


def test_default_threshold_forks_only_a_large_csv(monkeypatch, tmp_path):
    # at 2 CPUs a CSV forks from 2 * CSV_MIN_BLOCKS_PER_WORKER blocks on: the
    # summary and sweep CSVs stay inline
    monkeypatch.setattr(runner.models, "_WORKERS", 2)
    per_worker = runner.CSV_MIN_BLOCKS_PER_WORKER * CSV_BLOCK_ROWS
    assert len(runner._shares(2 * per_worker - CSV_BLOCK_ROWS)) == 1
    assert len(runner._shares(2 * per_worker)) == 2
    assert len(runner._shares(10**6)) == 2


def test_a_failing_worker_names_the_file_and_is_reaped(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(runner.models, "_WORKERS", 3)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setattr(runner.tempfile, "tempdir", str(tmpdir))
    parent, format_column = os.getpid(), runner._format_column

    def fail_in_a_worker(col):
        if os.getpid() != parent:
            raise MemoryError("worker")
        return format_column(col)

    monkeypatch.setattr(runner, "_format_column", fail_in_a_worker)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(RuntimeError, match="broken.csv"):
        write_csv(out / "broken.csv", ["a", "b"], [np.arange(38), np.arange(38) / 3])
    assert len(forks) == 2
    assert_no_child_left()
    assert os.listdir(out) == ["broken.csv"]
    assert os.listdir(tmpdir) == []


def test_an_error_in_the_parents_share_reaps_every_worker(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(runner.models, "_WORKERS", 3)
    parent, format_column = os.getpid(), runner._format_column

    def fail_in_the_parent(col):
        if os.getpid() == parent:
            raise KeyError("parent")
        return format_column(col)

    monkeypatch.setattr(runner, "_format_column", fail_in_the_parent)
    with pytest.raises(KeyError, match="parent"):
        write_csv(tmp_path / "a.csv", ["a"], [np.arange(38)])
    assert len(forks) == 2
    assert_no_child_left()
    assert os.listdir(tmp_path) == ["a.csv"]


@pytest.mark.parametrize("forkable", [0, 1])
def test_a_share_whose_fork_fails_is_written_by_the_parent(forkable, monkeypatch, tmp_path):
    # from the (forkable + 1)-th fork on, the parent writes the shares
    # after its own
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(runner.models, "_WORKERS", 3)
    calls = fail_forks_after(monkeypatch, forkable)
    assert_same_bytes(tmp_path, split_columns(38))
    assert len(calls) == forkable + 1
    assert_no_child_left()


def test_a_worker_runs_no_exit_hook_and_flushes_no_inherited_buffer(tmp_path):
    # stdout is a pipe, so block-buffered: what is printed before the fork is
    # still in the buffer each worker inherits
    code = f"""
import atexit, numpy as np
from pathlib import Path
from ipslearn import models, runner
atexit.register(print, "exit hook")
models._WORKERS, runner.CSV_BLOCK_ROWS, runner.CSV_MIN_BLOCKS_PER_WORKER = 3, 7, 1
print("before")
runner.write_csv(Path({str(tmp_path / "a.csv")!r}), ["v"], [np.arange(100) / 7])
print("after")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\nafter\nexit hook\n"
    assert (tmp_path / "a.csv").read_text() == "v\n" + "".join(f"{i / 7!r}\n" for i in range(100))
