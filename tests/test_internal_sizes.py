"""Artifacts do not depend on the program's internal sizes.

The noise buffer, the Cucker-Smale pair blocks and their worker count, the
CSV writer's row blocks and its minimum number of blocks per forked worker,
the sweep's and the batch's fork thresholds and the sha256 read chunks are
sizes chosen for speed and memory only.
Each case below, a bundled config with a few fields replaced, is run
through `estimate` twice, at the default
sizes and with every one of them perturbed (so that the batch's three
replicates are split among three processes and every CSV of more than one
block among forked workers), and the two output directories must match
file for file, byte for byte.  Two sweeps are run the same way,
inline and with their sizes shared among three processes.  Any change that
lets one of these sizes reach the arithmetic or the formatting fails here.
"""

import json
import os
from contextlib import redirect_stdout
from io import StringIO

import pytest

from ipslearn import batch, diagnostics, models, rng, runner, workers
from ipslearn.cli import main as cli_main
from ipslearn.config import _bundled_text

N_CS = 40  # Cucker-Smale particles: one row of pair terms is 40 cells
CS_RATE = {"kind": "constant", "gamma0": 1.0, "scale": [0.01, 0.01, 0.005]}

# case -> (bundled config, fields replaced)
CASES = {
    "linear_fig1": ("linear_fig1", {}),
    "doublewell_fig7_rmsprop": ("doublewell_fig7_rmsprop", {}),
    "fitzhugh_nagumo": ("fitzhugh_nagumo", {}),
    "kuramoto_changepoint": ("kuramoto_changepoint", {}),
    "cucker_smale_theta3": ("cucker_smale_theta3", {"n_particles": N_CS}),
    # the M-averaged forms over all particles: their estimates must not
    # depend on the sizes either, however a form evaluates Pi
    "cucker_smale_theta3_m_all": ("cucker_smale_theta3", {
        "n_particles": N_CS,
        "sweep": {"n_particles": [N_CS]},
        "estimators": [
            {"kind": kind, "pi": list(range(N_CS)), "free_params": [2], "learning_rate": CS_RATE}
            for kind in ("averaged_m", "triplet_m")
        ],
    }),
    "vol32": ("vol32", {}),
}


# sweep case -> (bundled config, fields replaced)
SWEEPS = {
    "linear_fig2_sweep": ("linear_fig2_sweep", {"n_steps": 30, "replicates": 4}),
    # the workers split the CPUs, and with them the Cucker-Smale pool
    "cucker_smale_theta3": ("cucker_smale_theta3", {
        "n_steps": 30, "replicates": 3, "sweep": {"n_particles": [3, 5, N_CS]}}),
}


def _run(command, cfg_path, out):
    with redirect_stdout(StringIO()):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _config(tmp_path, name, bundled, fields):
    cfg = json.loads(_bundled_text(bundled))
    cfg.update(fields)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def _record_forks(monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _record_batch_forks(monkeypatch, forks):
    """The number of forks made in each of the run's batches."""
    per_batch, real_run_batch = [], runner.run_batch

    def run_batch(*args, **kwargs):
        before = len(forks)
        result = real_run_batch(*args, **kwargs)
        per_batch.append(len(forks) - before)
        return result

    monkeypatch.setattr(runner, "run_batch", run_batch)
    return per_batch


def _perturb_sizes(monkeypatch):
    monkeypatch.setattr(rng, "NOISE_BUFFER_BYTES", 1)  # the smallest block, 16 steps
    # 3 workers, each with blocks of one row of the pair terms
    monkeypatch.setattr(models, "PAIR_BLOCK_BYTES", 8 * 3 * N_CS)
    monkeypatch.setattr(models, "_WORKERS", 3)
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(runner, "SHA256_CHUNK_BYTES", 13)
    monkeypatch.setattr(diagnostics, "SWEEP_MIN_FORK_STEPS", 0)
    monkeypatch.setattr(batch, "BATCH_MIN_FORK_PARTICLE_STEPS", 0)


def _assert_same_files(name, default, perturbed):
    assert sorted(perturbed) == sorted(default)
    for path, data in default.items():
        assert perturbed[path] == data, f"{name}: {path} differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_do_not_depend_on_internal_sizes(tmp_path, monkeypatch, name):
    bundled, fields = CASES[name]
    cfg_path = _config(tmp_path, name, bundled, {
        "n_steps": 120, "replicates": 3, "record_every": 1, "dump_trajectory": True, **fields})
    default = _run("estimate", cfg_path, tmp_path / "default")

    _perturb_sizes(monkeypatch)
    forks = _record_forks(monkeypatch)
    batch_forks = _record_batch_forks(monkeypatch, forks)
    perturbed = _run("estimate", cfg_path, tmp_path / "perturbed")
    assert batch_forks == [2] or not workers.FORK  # the parent runs the third slice
    assert len(forks) > 2 or not workers.FORK  # and CSVs are split

    assert len(default) > 5
    _assert_same_files(name, default, perturbed)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_does_not_depend_on_its_worker_processes(tmp_path, monkeypatch, name):
    cfg_path = _config(tmp_path, name, *SWEEPS[name])
    forks = _record_forks(monkeypatch)
    inline = _run("sweep", cfg_path, tmp_path / "inline")
    assert forks == []  # under the default threshold

    _perturb_sizes(monkeypatch)
    split = _run("sweep", cfg_path, tmp_path / "split")
    # two workers share the sizes with the parent, two more write blocks of sweep.csv
    assert len(forks) == 4 or not workers.FORK

    assert sorted(p.name for p in inline) == ["manifest.json", "sweep.csv",
                                              "sweep.csv.meta.json"]
    _assert_same_files(name, inline, split)
