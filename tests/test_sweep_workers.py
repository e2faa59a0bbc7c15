"""A sweep's sizes in forked worker processes fail as they fail inline.

`diagnostics.l2_error_sweep` shares its sizes among the parent and forked
workers (`workers.map_claimed`) above a number of batch steps.  A size that
fails in a worker must reach the CLI with the exit code and JSON line of
the inline run (a `ConfigError` too); where several fail, the first in
`n_list` is reported; a worker killed by a signal is named with its sizes;
a worker that cannot be forked leaves its sizes to the processes
already running; and no worker outlives the call, whatever happens in the parent.
Small sweeps stay inline.

The `forks` fixture lets the parent sleep after each fork, so that the
first worker claims the largest size (claimed first) before the parent
claims any.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from conftest import fail_forks_after
from ipslearn import diagnostics, models, workers
from ipslearn.cli import main as cli_main
from ipslearn.config import ConfigError, _bundled_text, parse_config

pytestmark = pytest.mark.skipif(not workers.FORK, reason="the sweep forks on Linux only")

PARENT_HEAD_START_S = 0.2


def sweep_config(tmp_path, sizes, n_steps=20):
    cfg = json.loads(_bundled_text("linear_fig2_sweep"))
    cfg.update(n_steps=n_steps, replicates=3, sweep={"n_particles": sizes})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked from here on, with every sweep forked
    at 3 CPUs."""
    monkeypatch.setattr(models, "_WORKERS", 3)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            time.sleep(PARENT_HEAD_START_S)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def batches(monkeypatch, tmp_path):
    """`batches(act)` makes every sweep batch call act(n, in_worker, result)
    after it runs; each size records in a file whether a worker ran it."""
    parent, real_run_batch = os.getpid(), diagnostics.run_batch

    def install(act):
        def run_batch(model, truth, n, *args, **kwargs):
            in_worker = os.getpid() != parent
            (tmp_path / f"ran_N{n}").write_text("worker" if in_worker else "parent")
            result = real_run_batch(model, truth, n, *args, **kwargs)
            act(n, in_worker, result)
            return result

        monkeypatch.setattr(diagnostics, "run_batch", run_batch)

    return install


def diverge_at(*sizes):
    """Gives the first estimator a non-finite tail mean on replicate 1 at
    each of `sizes`: the sweep's divergence check then fails that size."""
    def act(n, in_worker, result):
        if n in sizes:
            result.tracks[0].tail_mean[1] = np.nan

    return act


def cli_sweep(cfg_path, out, capsys):
    code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    return code, capsys.readouterr().err


def forked_sweep(cfg_path, out, capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "SWEEP_MIN_FORK_STEPS", 0)
        return cli_sweep(cfg_path, out, capsys)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_size_diverging_in_a_worker_fails_as_inline(tmp_path, capsys, monkeypatch, forks,
                                                      batches):
    cfg_path = sweep_config(tmp_path, [3, 4, 6])
    batches(diverge_at(6))
    inline = cli_sweep(cfg_path, tmp_path / "inline", capsys)
    assert forks == []
    forked = forked_sweep(cfg_path, tmp_path / "forked", capsys, monkeypatch)
    assert len(forks) == 2
    assert (tmp_path / "ran_N6").read_text() == "worker"
    assert forked == inline
    assert inline[0] == 1
    assert json.loads(inline[1]) == {
        "error": "runtime", "message": "estimator 'averaged' diverged at N=6: replicate 1 "
        "has a non-finite squared error against the truth"}
    assert_no_child_left()


def test_a_config_error_in_a_worker_exits_2_as_inline(tmp_path, capsys, monkeypatch, forks,
                                                      batches):
    def reject(n, in_worker, result):
        if n == 6:
            raise ConfigError("sweep.n_particles", f"N={n} is rejected")

    cfg_path = sweep_config(tmp_path, [3, 4, 6])
    batches(reject)
    inline = cli_sweep(cfg_path, tmp_path / "inline", capsys)
    forked = forked_sweep(cfg_path, tmp_path / "forked", capsys, monkeypatch)
    assert len(forks) == 2
    assert (tmp_path / "ran_N6").read_text() == "worker"
    assert forked == inline
    assert inline[0] == 2
    assert json.loads(inline[1]) == {"error": "validation",
                                     "message": "sweep.n_particles: N=6 is rejected"}
    assert_no_child_left()


@pytest.mark.parametrize("forkable", [0, 1])
def test_a_worker_that_cannot_be_forked_leaves_its_sizes_to_the_others(tmp_path, capsys,
                                                                       monkeypatch, forkable):
    monkeypatch.setattr(models, "_WORKERS", 3)
    cfg_path = sweep_config(tmp_path, [3, 4, 6])
    assert cli_sweep(cfg_path, tmp_path / "inline", capsys)[0] == 0
    calls = fail_forks_after(monkeypatch, forkable)
    assert forked_sweep(cfg_path, tmp_path / "forked", capsys, monkeypatch)[0] == 0
    assert len(calls) == forkable + 1
    inline, forked = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                      for d in ("inline", "forked"))
    assert forked == inline
    assert models._WORKERS == 3
    assert_no_child_left()


def test_the_first_failing_size_in_the_list_is_reported(tmp_path, capsys, monkeypatch, forks,
                                                        batches):
    # N=6 is claimed first and fails first, in a worker; N=4 comes first in
    # the list, as inline
    cfg_path = sweep_config(tmp_path, [4, 3, 6])
    batches(diverge_at(6, 4))
    inline = cli_sweep(cfg_path, tmp_path / "inline", capsys)
    forked = forked_sweep(cfg_path, tmp_path / "forked", capsys, monkeypatch)
    assert len(forks) == 2
    assert forked == inline
    assert " at N=4: " in json.loads(forked[1])["message"]
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_exits_1_naming_its_sizes(tmp_path, capsys, monkeypatch,
                                                              forks, batches):
    cfg_path = sweep_config(tmp_path, [3, 4, 6])

    def kill_the_worker_at_6(n, in_worker, result):
        if in_worker and n == 6:
            os.kill(os.getpid(), signal.SIGKILL)

    batches(kill_the_worker_at_6)
    code, err = forked_sweep(cfg_path, tmp_path / "out", capsys, monkeypatch)
    assert len(forks) == 2
    assert (code, json.loads(err)) == (1, {
        "error": "runtime",
        "message": f"the worker process running N=6 was killed by signal {signal.SIGKILL}"})
    assert list((tmp_path / "out").iterdir()) == []  # no artifact written
    assert_no_child_left()


def test_an_error_in_the_parents_size_leaves_no_live_child(tmp_path, monkeypatch, forks,
                                                           batches):
    def fail_in_the_parent(n, in_worker, result):
        if in_worker:
            time.sleep(1.0)  # leaves a size to the parent
        else:
            raise KeyError("parent")

    batches(fail_in_the_parent)
    config = parse_config(json.loads(sweep_config(tmp_path, [3, 4, 6]).read_text()))
    monkeypatch.setattr(diagnostics, "SWEEP_MIN_FORK_STEPS", 0)
    with pytest.raises(KeyError, match="parent"):
        diagnostics.l2_error_sweep(config.model, config.truth, config.sweep_n_particles,
                                   config.dt, config.n_steps, config.replicates,
                                   config.estimators, config.base_seed)
    assert len(forks) == 2
    assert_no_child_left()


def test_ctrl_c_in_the_parent_stops_every_worker(tmp_path, monkeypatch, forks, batches):
    def interrupt_the_parent(n, in_worker, result):
        if in_worker:
            time.sleep(60)  # until the parent stops it
        raise KeyboardInterrupt

    batches(interrupt_the_parent)
    config = parse_config(json.loads(sweep_config(tmp_path, [3, 4, 6]).read_text()))
    monkeypatch.setattr(diagnostics, "SWEEP_MIN_FORK_STEPS", 0)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        diagnostics.l2_error_sweep(config.model, config.truth, config.sweep_n_particles,
                                   config.dt, config.n_steps, config.replicates,
                                   config.estimators, config.base_seed)
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("n_steps", [1, 3])
def test_a_one_step_or_three_step_sweep_stays_inline(tmp_path, forks, n_steps):
    # the one-step set-up run of a sweep, and the sizes of the bundled Fig-2
    # sweep at the 3 steps of quick benchmark runs
    config = parse_config(json.loads(_bundled_text("linear_fig2_sweep")))
    assert len(config.sweep_n_particles) * n_steps <= diagnostics.SWEEP_MIN_FORK_STEPS
    diagnostics.l2_error_sweep(config.model, config.truth, config.sweep_n_particles,
                               config.dt, n_steps, config.replicates, config.estimators,
                               config.base_seed, tail_fraction=config.tail_fraction)
    assert forks == []
