"""The benchmark's workloads: a bundled config, a subcommand and overrides.

Each workload makes one layer do most of the work, so that an optimisation
of that layer shows on its own workload and not on the others (README.md
gives the map).  Everything the trace self-check expects is derived here
from the generated config, never from what the trace saw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # ipslearn subcommand
    config: str  # bundled config name
    overrides: dict = field(default_factory=dict)
    # layers whose self time should dominate the traced run (trace.intended_layer_share)
    intended: tuple = ()

    def bundled(self, root: Path) -> dict:
        path = root / "src" / "ipslearn" / "configs" / f"{self.config}.json"
        return json.loads(path.read_text())

    def reference_seed(self, root: Path) -> int:
        return self.bundled(root)["base_seed"]

    def make_config(self, root: Path, seed: int, n_steps: int | None = None) -> dict:
        """The bundled config with this workload's overrides and `seed`."""
        cfg = self.bundled(root)
        cfg.update(self.overrides)
        cfg["base_seed"] = seed
        if n_steps is not None:
            cfg["n_steps"] = n_steps
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # per-step Python and estimator overhead: five small-N batches, thinned
        # recording, one tiny sweep.csv
        Workload(
            "sweep-linear",
            "sweep",
            "linear_fig2_sweep",
            {"n_steps": 4000},
            intended=("estimators.", "models.weight_matrix", "batch.run_batch"),
        ),
        # the O(N^2) Cucker-Smale drift with its (R, N, N) temporaries
        Workload(
            "estimate-cs-n500",
            "estimate",
            "cucker_smale_theta2",
            {"n_particles": 500, "replicates": 4, "n_steps": 600},
            intended=("models.drift_ensemble",),
        ),
        # dense recording: every step of every particle is written, and each
        # replicate is re-simulated for the trajectory dump
        Workload(
            "estimate-fhn-dump",
            "estimate",
            "fitzhugh_nagumo",
            {"n_particles": 50, "replicates": 4, "n_steps": 1500,
             "record_every": 1, "dump_trajectory": True},
            intended=("runner.write_csv",),
        ),
    )
}


def batch_sizes(command: str, cfg: dict) -> list:
    """(R, N, n_steps) of every run_batch call the command makes."""
    ns = cfg["sweep"]["n_particles"] if command == "sweep" else [cfg["n_particles"]]
    return [(cfg["replicates"], n, cfg["n_steps"]) for n in ns]


def particle_steps(command: str, cfg: dict) -> int:
    """Sum of R*N*n_steps over the batches; the dump re-simulation is not counted."""
    return sum(r * n * s for r, n, s in batch_sizes(command, cfg))


def expected_counts(command: str, cfg: dict) -> dict:
    """Wrapper call counts the config implies, keyed by trace span name."""
    batches = batch_sizes(command, cfg)
    batch_steps = sum(s for _, _, s in batches)
    dump = command == "estimate" and cfg.get("dump_trajectory", False)
    resim_steps = cfg["replicates"] * cfg["n_steps"] if dump else 0
    n_est = len(cfg["estimators"])
    n_csv = 1 if command == "sweep" else cfg["replicates"] * (2 if dump else 1) + 1
    return {
        "batch.run_batch": len(batches),
        "batch.steps": batch_steps,
        "rng.BlockedNoise.next_step": batch_steps + resim_steps,
        "sde.step_positions": batch_steps + resim_steps,
        "sde.run_trajectory": cfg["replicates"] if dump else 0,
        "sde.resim_steps": resim_steps,
        "estimators.updates": batch_steps * n_est,
        "runner.write_csv": n_csv,
        "diagnostics.l2_error_sweep": 1 if command == "sweep" else 0,
        "config.load_config": 1,
    }
