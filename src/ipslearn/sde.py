"""Euler-Maruyama integration of the interacting particle system.

`simulate` is the one time loop of the package.  It advances R independent
replicates of N particles in lockstep as an (R, N, d) array, with one noise
stream per (replicate, particle) keyed by (seed, particle index), so a
replicate's path depends only on its seed and never on the replicates run
alongside it.  Mean-field sums are evaluated in a fixed order, so runs are
bit-reproducible given (seed, config).

Everything that reads the simulation is an observer: an object with

    on_step(step, t, positions, dx, stat, keep)

called once per step with the (R, N, d) state at the start of the step, the
increments dX applied over it, the shared `model.mean_field(positions)`, and
`keep`, a bool (R,) mask of the replicates already excluded by the blow-up
guard (None while there are none; their dX is zero and they no longer move).
The batch estimators, trajectory dumps, surface scans, moment tracking and
the coupling diagnostic are all observers of this loop.  The observers here
keep what they see as numpy arrays (`PositionHistory` the recorded
positions, `MomentTracker` one series per order), which the artifact
writers turn into CSV columns.
"""

from __future__ import annotations

import numpy as np

from .models import InteractionModel, TruthSchedule
from .rng import BlockedNoise, particle_streams

BLOWUP_THRESHOLD = 1e6  # |x| guard; superlinear diffusions can explode under Euler


class SimulationBlowup(RuntimeError):
    """A particle left the finite / bounded region; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"simulation blew up at step {step}")


def step_positions(model, theta_true, positions, dw, dt, stat=None):
    """One Euler-Maruyama step; returns (new_positions, dx).

    dX = B(theta, x) dt + Sigma dW, with noise entering only the masked
    components (encoded by zero rows of the diffusion).  `stat` is
    `model.mean_field(positions)` when the caller already has it.
    """
    drift = model.drift_ensemble(np.asarray(theta_true, dtype=float), positions, stat)
    dx = drift * dt + model.diffusion.apply(positions, dw)
    return positions + dx, dx


def simulate(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    seeds,
    observers=(),
):
    """Run one replicate per seed; returns (positions, excluded, blowup_step).

    Initial positions are each stream's first draws.  A replicate with a
    non-finite entry or one above BLOWUP_THRESHOLD in magnitude after a
    step is excluded at that step: its blowup_step is the step index (-1
    for clean replicates), and from that step on it is marked in `keep`,
    with zero dX, and keeps its last guarded state.  The loop stops, before calling
    the observers, once every replicate is excluded.
    """
    R, N, d = len(seeds), n_particles, model.d
    noise = BlockedNoise([st for s in seeds for st in particle_streams(s, N)], d, dt, n_steps)
    positions = noise.initial_positions().reshape(R, N, d)

    active = np.ones(R, dtype=bool)
    keep = None  # ~active once a replicate is excluded: it no longer moves
    blowup_step = np.full(R, -1, dtype=np.int64)
    constant_truth = truth.kind == "constant"
    theta_true = truth.at(0.0)

    for step in range(n_steps):
        t = step * dt
        if not constant_truth:
            theta_true = truth.at(t)

        stat = model.mean_field(positions)  # shared by the drift and every observer
        dw = noise.next_step().reshape(R, N, d)
        new_pos, dx = step_positions(model, theta_true, positions, dw, dt, stat)

        # the max is NaN or inf, and fails the test, if any entry is; the
        # per-replicate maxima are needed only then
        if not np.abs(new_pos).max() <= BLOWUP_THRESHOLD:
            ok = np.abs(new_pos.reshape(R, -1)).max(axis=1) <= BLOWUP_THRESHOLD
            newly_dead = active & ~ok
            if newly_dead.any():
                blowup_step[newly_dead] = step
                active &= ok
                if not active.any():
                    break  # `positions` holds every replicate's last guarded state
                keep = ~active
        if keep is not None:
            np.copyto(new_pos, positions, where=keep[:, None, None])
            dx[keep] = 0.0

        for obs in observers:
            obs.on_step(step, t, positions, dx, stat, keep)
        positions = new_pos

    return positions, ~active, blowup_step


def run_trajectory(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    seed: int,
    observers=(),
) -> np.ndarray:
    """One replicate of `simulate`; returns the final (N, d) positions.

    Observers see (1, N, d) arrays.  If the blow-up guard trips, observers
    have received every step before it and SimulationBlowup carries the step.
    """
    positions, excluded, blowup_step = simulate(
        model, truth, n_particles, dt, n_steps, (seed,), observers
    )
    if excluded[0]:
        step = int(blowup_step[0])
        raise SimulationBlowup(
            step, f"|x| exceeded {BLOWUP_THRESHOLD:g} or became non-finite at step {step}"
        )
    return positions[0]


# ---------------------------------------------------------------------------
# Observers of single trajectories (replicate 0 of the positions they see)


class PositionHistory:
    """Keeps the step-start positions of the first n particles as an array.

    `positions` is (T, n, d), one entry per step in `steps`: every
    `record_every`-th step from `start` up to n_steps.  Entries of steps
    the run did not reach (it blew up first) stay NaN.
    """

    def __init__(self, n_steps, n_particles, d, start=0, record_every=1):
        self.start = start
        self.record_every = record_every
        self.steps = np.arange(start, n_steps, record_every)
        self.positions = np.full((len(self.steps), n_particles, d), np.nan)

    def on_step(self, step, t, positions, dx, stat, keep):
        k, off = divmod(step - self.start, self.record_every)
        if k >= 0 and not off:
            self.positions[k] = positions[0, : self.positions.shape[1]]


class MomentTracker:
    """Tracks ensemble-mean |x|^k per step for the orders k in `orders`.

    Exposes the per-step series and a coarse growth flag on the second
    moment (second-half mean more than twice the first-half mean), which
    catches drifting moments before the hard blowup guard trips.
    """

    orders = (2, 4)

    def __init__(self, n_steps):
        self.series = {k: np.empty(n_steps) for k in self.orders}
        self.n_filled = 0

    def on_step(self, step, t, positions, dx, stat, keep):
        sq = np.sum(positions[0] ** 2, axis=1)
        for k in self.orders:
            self.series[k][step] = np.mean(sq ** (k / 2))
        self.n_filled = step + 1

    def growth_detected(self):
        s = self.series[2][: self.n_filled]
        half = len(s) // 2
        if half == 0:
            return False
        return bool(np.mean(s[half:]) > 2.0 * np.mean(s[:half]))
