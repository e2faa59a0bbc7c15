"""Artifacts do not depend on the program's internal sizes.

The noise buffer, the Cucker-Smale pair blocks and their worker count, the
CSV writer's row blocks and its minimum number of blocks per forked worker,
and the sha256 read chunks are sizes chosen for speed and memory only.
Each case below, a bundled config with a few fields replaced, is run
through `estimate` twice, at the default
sizes and with every one of them perturbed (so that every CSV of more than
one block is split among forked workers), and the two output directories
must match file for file, byte for byte.  Any change that lets one of
these sizes reach the arithmetic or the formatting fails here.
"""

import json
import os
from contextlib import redirect_stdout
from io import StringIO

import pytest

from ipslearn import models, rng, runner
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


def _estimate(cfg_path, out):
    with redirect_stdout(StringIO()):
        assert cli_main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_do_not_depend_on_internal_sizes(tmp_path, monkeypatch, name):
    bundled, fields = CASES[name]
    cfg = json.loads(_bundled_text(bundled))
    cfg.update(n_steps=120, replicates=2, record_every=1, dump_trajectory=True, **fields)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    default = _estimate(cfg_path, tmp_path / "default")

    monkeypatch.setattr(rng, "NOISE_BUFFER_BYTES", 1)  # the smallest block, 16 steps
    # 3 workers, each with blocks of one row of the pair terms
    monkeypatch.setattr(models, "PAIR_BLOCK_BYTES", 8 * 3 * N_CS)
    monkeypatch.setattr(models, "_WORKERS", 3)
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(runner, "CSV_MIN_BLOCKS_PER_WORKER", 1)
    monkeypatch.setattr(runner, "SHA256_CHUNK_BYTES", 13)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    perturbed = _estimate(cfg_path, tmp_path / "perturbed")
    assert forks or not runner._FORK

    assert sorted(perturbed) == sorted(default)
    assert len(default) > 5
    for path, data in default.items():
        assert perturbed[path] == data, f"{name}: {path} differs"
