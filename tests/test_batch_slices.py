"""A batch split into replicate slices gives the bits of the batch run whole.

Above `batch.BATCH_MIN_FORK_PARTICLE_STEPS` particle steps, `run_batch`
cuts its seeds into one contiguous slice per CPU (`models._WORKERS`), runs
the slices in this process and forked workers and joins their arrays along
R.  A slice whose replicates all blow up stops early, while the batch run
whole goes on adding their held estimates; the join must give the same
bits.  Small batches stay inline, and a fork that fails leaves its slice to
the processes already running.
"""

import functools
import json
import os

import pytest

from conftest import fail_forks_after
from ipslearn import batch, models, workers
from ipslearn.config import _bundled_text, parse_config

VOL32_SEEDS = (1, 3, 4)  # blow up at steps 7 and 5; the third runs on
ALL_BLOW_UP = (1, 2, 3)  # blow up at steps 7, 53 and 5


@functools.cache
def vol32_config(replicates):
    """vol32 with eta = 1.5 (theta = [2.7, 2.3, 1.0]), N = 10 and dt = 0.2;
    parsed once, so the runs below share its setup objects."""
    raw = json.loads(_bundled_text("vol32"))
    raw.update(eta_true=1.5, n_particles=10, dt=0.2, replicates=replicates)
    return parse_config(raw)


def vol32_batch(seeds, n_steps):
    """A vol32 batch with its three bundled estimators recorded every 2 steps."""
    config = vol32_config(len(seeds))
    return batch.run_batch(config.model, config.truth, 10, 0.2, n_steps, seeds,
                           config.estimators, record_every=2)


def split_among(monkeypatch, cpus):
    """Forces the split of every batch among `cpus` processes; returns the
    list that records each fork."""
    monkeypatch.setattr(models, "_WORKERS", cpus)
    monkeypatch.setattr(batch, "BATCH_MIN_FORK_PARTICLE_STEPS", 0)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def assert_same_batch(whole, split):
    for name in ("excluded", "blowup_step", "final_positions"):
        a, b = getattr(whole, name), getattr(split, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert split.n_steps == whole.n_steps
    assert len(split.tracks) == len(whole.tracks)
    for a, b in zip(whole.tracks, split.tracks):
        assert b.setup is a.setup
        for name in ("record_steps", "theta_path", "frozen_path", "tail_mean", "final",
                     "frozen_final"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                f"{a.setup.label}.{name}"


@pytest.mark.parametrize("cpus", [2, 3])  # slices (1, 3) + (4,), or one seed each
def test_a_slice_that_blows_up_whole_joins_as_the_whole_batch(monkeypatch, cpus):
    whole = vol32_batch(VOL32_SEEDS, 20)
    assert whole.blowup_step.tolist() == [7, 5, -1]
    assert len(whole.tracks[0].record_steps) == 10
    forks = split_among(monkeypatch, cpus)
    split = vol32_batch(VOL32_SEEDS, 20)
    assert len(forks) == cpus - 1 or not workers.FORK
    assert_same_batch(whole, split)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_batch_that_blows_up_whole_stops_at_its_last_blow_up(monkeypatch, cpus):
    whole = vol32_batch(ALL_BLOW_UP, 60)
    assert whole.blowup_step.tolist() == [7, 53, 5] and whole.excluded.all()
    assert whole.tracks[0].record_steps[-1] == 52
    forks = split_among(monkeypatch, cpus)
    split = vol32_batch(ALL_BLOW_UP, 60)
    assert len(forks) == cpus - 1 or not workers.FORK
    assert_same_batch(whole, split)


@pytest.mark.parametrize("forkable", [0, 1])
def test_a_slice_whose_fork_fails_runs_in_the_parent(monkeypatch, forkable):
    whole = vol32_batch(VOL32_SEEDS, 20)
    monkeypatch.setattr(models, "_WORKERS", 3)
    monkeypatch.setattr(batch, "BATCH_MIN_FORK_PARTICLE_STEPS", 0)
    forks = fail_forks_after(monkeypatch, forkable)
    split = vol32_batch(VOL32_SEEDS, 20)
    assert len(forks) == forkable + 1 or not workers.FORK
    assert models._WORKERS == 3
    assert_same_batch(whole, split)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_slice_failing_in_a_worker_fails_as_inline(monkeypatch):
    parent, real_simulate = os.getpid(), batch.simulate

    def simulate(model, truth, n, dt, n_steps, seeds, observers):
        if 4 in seeds:
            where = "parent" if os.getpid() == parent else "worker"
            raise ValueError(f"seed 4 failed in the {where}")
        return real_simulate(model, truth, n, dt, n_steps, seeds, observers)

    monkeypatch.setattr(batch, "simulate", simulate)
    with pytest.raises(ValueError, match="in the parent"):
        vol32_batch(VOL32_SEEDS, 20)
    split_among(monkeypatch, 3)
    with pytest.raises(ValueError, match="seed 4 failed in the "):
        vol32_batch(VOL32_SEEDS, 20)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (bundled config, fields replaced, n_steps): the batch of perfbench's
# estimate-fhn-dump workload at full size and the set-up (1 step) and quick
# (3 steps) runs of each workload's largest batch
INLINE = {
    "fhn-dump": ("fitzhugh_nagumo", {"n_particles": 50, "replicates": 4}, 1500),
    "cs-n500 set-up": ("cucker_smale_theta2", {"n_particles": 500, "replicates": 4}, 1),
    "cs-n500 quick": ("cucker_smale_theta2", {"n_particles": 500, "replicates": 4}, 3),
    "sweep-linear quick": ("linear_fig2_sweep", {}, 3),
}


@pytest.mark.parametrize("name", sorted(INLINE))
def test_small_batches_stay_inline(monkeypatch, name):
    bundled, fields, n_steps = INLINE[name]
    config = parse_config({**json.loads(_bundled_text(bundled)), **fields})
    assert config.replicates * config.n_particles * n_steps <= batch.BATCH_MIN_FORK_PARTICLE_STEPS
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the batch forked"))
    batch.run_batch(config.model, config.truth, config.n_particles, config.dt, n_steps,
                    batch.batch_seeds(config.base_seed, config.replicates), config.estimators)


def test_the_cucker_smale_n500_batch_splits():
    # perfbench's estimate-cs-n500 batch: R = 4, N = 500, 600 steps
    assert 4 * 500 * 600 > batch.BATCH_MIN_FORK_PARTICLE_STEPS
