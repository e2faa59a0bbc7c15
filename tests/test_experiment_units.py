"""An `estimate` or `simulate` run's units in forked workers give the bytes
and the failures of the run inline.

`runner.run_experiment` hands its independent units (the batch with its
estimates and summary, and the dump of each replicate) to one
`workers.map_claimed` call when one replicate's dump has rows enough for
the CSV writer to split it.  A batch that cuts itself into replicate slices
runs first, alone, and only the dumps are shared after it.  The thresholds
are lowered here so that small runs fork.
"""

import json
import os
import re
import signal
import time
from contextlib import redirect_stdout
from io import StringIO

import pytest

from ipslearn import batch, models, runner, workers
from ipslearn.cli import main as cli_main
from ipslearn.config import _bundled_text
from test_config_cli import _vol32_blowup_config

pytestmark = pytest.mark.skipif(not workers.FORK, reason="the units fork on Linux only")

PARENT_HEAD_START_S = 0.2


def fhn_config(tmp_path, replicates=3):
    """FitzHugh-Nagumo, replicates of 6 particles over 40 steps, every step
    recorded and dumped: 480 rows per dump."""
    cfg = json.loads(_bundled_text("fitzhugh_nagumo"))
    cfg.update(n_particles=6, replicates=replicates, n_steps=40, record_every=1,
               dump_trajectory=True)
    path = tmp_path / "fhn.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config, out):
    with redirect_stdout(StringIO()):
        assert cli_main([command, "--config", config, "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def lower_the_thresholds(monkeypatch, cpus, head_start_s=0.0):
    """Makes a dump of 7 rows or more large at `cpus` CPUs; returns the
    list that records each fork, after which the parent sleeps
    `head_start_s`."""
    monkeypatch.setattr(models, "_WORKERS", cpus)
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 1)
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            time.sleep(head_start_s)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def record_shared_units(monkeypatch):
    """The item names of each `map_claimed` call that may fork."""
    calls, real = [], workers.map_claimed

    def map_claimed(fn, items, order, name, fork):
        if fork:
            calls.append([name(x) for x in items])
        return real(fn, items, order, name, fork)

    monkeypatch.setattr(workers, "map_claimed", map_claimed)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_forked_units_write_the_bytes_of_the_inline_run(tmp_path, monkeypatch, command, cpus):
    config = fhn_config(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(os, "fork", lambda: pytest.fail("a small run forked"))
        inline = run(command, config, tmp_path / "inline")
    forks = lower_the_thresholds(monkeypatch, cpus)
    units = record_shared_units(monkeypatch)
    forked = run(command, config, tmp_path / "forked")
    dumps = ["replicate 0", "replicate 1", "replicate 2"]
    # a batch below the split threshold is a unit beside the dumps
    assert units == [(["the batch"] if command == "estimate" else []) + dumps]
    assert len(forks) == cpus - 1  # each process holds one CPU, so none splits a CSV
    assert models._WORKERS == cpus
    assert len(inline) == (15 if command == "estimate" else 7)
    assert forked == inline
    assert_no_child_left()


def test_a_batch_that_splits_runs_alone_before_the_dumps(tmp_path, monkeypatch):
    config = fhn_config(tmp_path)
    inline = run("estimate", config, tmp_path / "inline")
    forks = lower_the_thresholds(monkeypatch, 3)
    monkeypatch.setattr(batch, "BATCH_MIN_FORK_PARTICLE_STEPS", 0)
    units = record_shared_units(monkeypatch)
    forked = run("estimate", config, tmp_path / "forked")
    assert units == [["replicates 0 to 0", "replicates 1 to 1", "replicates 2 to 2"],
                     ["replicate 0", "replicate 1", "replicate 2"]]
    assert len(forks) > 4  # 2 for the slices, CSV shares of the batch's files, 2 for the dumps
    assert forked == inline
    assert_no_child_left()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_a_forked_run_where_every_replicate_blows_up_fails(tmp_path, capsys, monkeypatch,
                                                          command):
    # eta 1.5 at dt 0.2: seeds 1, 2 and 3 blow up at steps 7, 53 and 5; the
    # batch's error comes first in `estimate`, the dumps' in `simulate`
    out = tmp_path / "o"
    config = _vol32_blowup_config(tmp_path, eta_true=1.5, dt=0.2, n_steps=500, base_seed=1,
                                  dump_trajectory=True)
    forks = lower_the_thresholds(monkeypatch, 3)
    assert cli_main([command, "--config", config, "--out", str(out)]) == 1
    assert len(forks) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "runtime", "message": "every replicate blew up; nothing to report"}
    assert not (out / "manifest.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_a_dump_whose_worker_is_killed_exits_1_naming_its_replicate(tmp_path, capsys,
                                                                   monkeypatch, command):
    # the parent sleeps after the fork, so the worker claims the first unit:
    # in `estimate` the batch, which it finishes, then a dump
    parent, real_run_trajectory = os.getpid(), runner.run_trajectory

    def run_trajectory(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run_trajectory(*args, **kwargs)

    forks = lower_the_thresholds(monkeypatch, 2, PARENT_HEAD_START_S)
    monkeypatch.setattr(runner, "run_trajectory", run_trajectory)
    code = cli_main([command, "--config", fhn_config(tmp_path, replicates=2),
                     "--out", str(tmp_path / "o")])
    assert len(forks) == 1
    err = json.loads(capsys.readouterr().err)
    assert (code, err["error"]) == (1, "runtime")
    # only the unit it was running, not the batch it finished
    assert re.fullmatch(f"the worker process running replicate [01] was killed by signal "
                        f"{signal.SIGKILL}", err["message"]), err["message"]
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert_no_child_left()
