"""Online estimators over stacked independent replicates.

`run_batch` runs `sde.simulate` on one replicate per seed, as a (R, N, d)
array with one noise stream per (replicate, particle), and attaches the
estimators as its observer.  The estimator update rules broadcast over the
replicate axis, which keeps long sweeps and large replicate counts fast
without changing any per-replicate arithmetic.  A rule reads the
estimator's `EstimatorSetup` itself; the batch adds only the state.

Replicates that blow up are frozen in place, flagged with the offending
step index, and excluded from aggregation; an estimator whose update turns
non-finite is frozen.  The run fails only if every replicate fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .estimators import EstimatorState, LearningRateSchedule, RmsPropConfig
from .models import Box, InteractionModel, TruthSchedule
from .rng import PARAM_INIT_STREAM, RngStream, replicate_seed
from .sde import simulate

# estimator kind -> name of its update rule in `estimators`
RULES = {
    "averaged": "update_averaged",
    "triplet": "update_three_particle",
    "averaged_m": "update_m_averaged_full",
    "triplet_m": "update_m_averaged_triplets",
    "diffusion": "update_diffusion",
}
ESTIMATOR_KINDS = tuple(RULES)


@dataclass
class EstimatorSetup:
    """One online estimator as `config` resolves it, complete: its update
    rule reads it as it is on every step, and the writers and scorers read
    its label, parameter names and truth.  Nothing is filled in or converted
    per run."""

    kind: str
    label: str = ""
    particles: tuple = ()  # (particle,), or the sorted Pi of the M-averaged form
    triplets: tuple = ()  # (triplet,), or C(Pi) of the M-averaged form
    schedule: LearningRateSchedule = None
    free_mask: np.ndarray | None = None  # float 0/1, multiplied into the step; 0 = pinned
    bounds: Box | None = None
    rmsprop: RmsPropConfig | None = None
    weight: np.ndarray | None = None  # (d, d) residual weighting; None for diffusion
    theta_init: np.ndarray = None  # (R, p), or (p,) shared by every replicate
    param_names: tuple = ()  # the names of the p parameters it estimates
    truth: TruthSchedule | None = None  # what its tail mean is scored against

    def __post_init__(self):
        if not self.label:
            self.label = self.kind


@dataclass
class EstimatorTrack:
    setup: EstimatorSetup
    record_steps: np.ndarray  # (n_rec,)
    theta_path: np.ndarray  # (n_rec, R, p)
    frozen_path: np.ndarray  # (n_rec, R)
    tail_mean: np.ndarray  # (R, p)
    final: np.ndarray  # (R, p)
    frozen_final: np.ndarray  # (R,)


@dataclass
class BatchResult:
    tracks: list
    excluded: np.ndarray  # (R,) bool
    blowup_step: np.ndarray  # (R,) int, -1 if clean
    final_positions: np.ndarray
    n_steps: int


def draw_initial_thetas(seeds, low, high):
    """Per-replicate uniform-box draws from the reserved parameter stream.

    Each replicate draws len(low) uniforms for the drift parameters first
    and one more for a diffusion parameter, in that order, so the draws do
    not depend on which estimators are attached.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    thetas = np.empty((len(seeds), low.size))
    etas = np.empty((len(seeds), 1))
    for r, s in enumerate(seeds):
        stream = RngStream(s, PARAM_INIT_STREAM)
        u = stream.uniforms(low.size)
        thetas[r] = low + u * (high - low)
        etas[r] = stream.uniforms(1)
    return thetas, etas


class _Estimators:
    """Observer that runs a batch's estimators (rule k reads `setups[k]` and
    updates `states[k]` in place) and their tail and record bookkeeping."""

    def __init__(self, setups, model, dt, n_replicates, n_steps, record_every, tail_fraction):
        self.setups = setups
        self.model = model
        self.dt = dt
        self.states = []
        for s in setups:
            theta = np.empty((n_replicates, np.shape(s.theta_init)[-1]))
            theta[...] = s.theta_init  # a copy: the rules never write the caller's array
            self.states.append(EstimatorState(theta=theta))
        # looked up by name when the run starts, so a wrapper put on the
        # module attribute sees every call
        self.rules = [getattr(est, RULES[s.kind]) for s in setups]
        self.record_every = record_every
        self.tail_start = n_steps - max(1, int(round(tail_fraction * n_steps)))
        self.tail_sums = [np.zeros_like(s.theta) for s in self.states]
        self.tail_count = 0
        self.rec_steps = []
        self.rec_theta = [[] for _ in setups]
        self.rec_frozen = [[] for _ in setups]

    def on_step(self, step, t, positions, dx, stat, keep):
        model, dt = self.model, self.dt
        for rule, setup, state in zip(self.rules, self.setups, self.states):
            rule(state, setup, model, dt, positions, dx, stat, t, keep)

        if step >= self.tail_start:
            for total, state in zip(self.tail_sums, self.states):
                total += state.theta
            self.tail_count += 1

        if self.record_every is not None and step % self.record_every == 0:
            self.rec_steps.append(step)
            for k, state in enumerate(self.states):
                self.rec_theta[k].append(state.theta.copy())
                self.rec_frozen[k].append(state.frozen.copy())

    def tracks(self, n_replicates):
        steps = np.asarray(self.rec_steps, dtype=np.int64)
        out = []
        for k, (setup, state) in enumerate(zip(self.setups, self.states)):
            theta, frozen = state.theta, state.frozen
            out.append(
                EstimatorTrack(
                    setup=setup,
                    record_steps=steps,
                    theta_path=np.asarray(self.rec_theta[k]) if self.rec_theta[k]
                    else np.empty((0, n_replicates, theta.shape[-1])),
                    frozen_path=np.asarray(self.rec_frozen[k]) if self.rec_frozen[k]
                    else np.empty((0, n_replicates), dtype=bool),
                    tail_mean=self.tail_sums[k] / max(self.tail_count, 1),
                    final=theta.copy(),
                    frozen_final=frozen.copy(),
                )
            )
        return out


def run_batch(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    seeds,
    estimator_setups=(),
    record_every: int | None = None,
    tail_fraction: float = 0.1,
) -> BatchResult:
    """Simulate one replicate per seed with the estimators observing every step."""
    seeds = tuple(int(s) for s in seeds)
    R = len(seeds)
    estimators = _Estimators(
        list(estimator_setups), model, dt, R, n_steps, record_every, tail_fraction
    )
    # an overflowing estimator is frozen and reported by `squared_errors`;
    # numpy's warning would only put a stray line ahead of the CLI's error
    with np.errstate(over="ignore"):
        positions, excluded, blowup_step = simulate(
            model, truth, n_particles, dt, n_steps, seeds, (estimators,)
        )
    return BatchResult(
        tracks=estimators.tracks(R),
        excluded=excluded,
        blowup_step=blowup_step,
        final_positions=positions,
        n_steps=n_steps,
    )


def batch_seeds(base_seed: int, replicates: int):
    return tuple(replicate_seed(base_seed, r) for r in range(replicates))
