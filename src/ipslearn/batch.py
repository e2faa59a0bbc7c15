"""Online estimators over stacked independent replicates.

`run_batch` runs `sde.simulate` on one replicate per seed, as a (R, N, d)
array with one noise stream per (replicate, particle), and attaches the
estimators as its observer.  The estimator update rules broadcast over the
replicate axis, which keeps long sweeps and large replicate counts fast
without changing any per-replicate arithmetic.  A rule reads the
estimator's `EstimatorSetup` itself; the batch adds only the state.

A large batch's seeds are cut into one contiguous slice per CPU, each run
by `simulate` with its own estimator states in its own process (the parent
runs one, forked workers the others, through `workers.map_claimed`), and
the slices' arrays are joined along R in seed order.  A replicate's bits
depend only on its own streams, so no output depends on the split.

Replicates that blow up are frozen in place, flagged with the offending
step index, and excluded from aggregation; an estimator whose update turns
non-finite is frozen.  The run fails only if every replicate fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators as est
from . import models, workers
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

# A batch's replicates are split among the CPUs only when it has more than
# this many particle steps (R * N * n_steps); see the README's "Parallel work".
BATCH_MIN_FORK_PARTICLE_STEPS = 10**6


def n_slices(replicates, n_particles, n_steps):
    """The number of replicate slices a batch of this size is cut into: one
    per CPU above BATCH_MIN_FORK_PARTICLE_STEPS, else 1."""
    if replicates * n_particles * n_steps > BATCH_MIN_FORK_PARTICLE_STEPS:
        return min(models._WORKERS, replicates)
    return 1


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


class _Slice:
    """What one contiguous slice of a batch's replicates hands back, all
    plain arrays: each estimator's state, its tail sums and its recorded
    rows (one per step `record_every` divides, allocated up front), `stop`
    (the steps the estimators saw) and the simulation's outcome."""

    def __init__(self, states, n_steps, record_every, tail_start):
        self.states = states
        self.record_every = record_every
        self.tail_start = tail_start
        self.tail_sums = [np.zeros_like(s.theta) for s in states]
        self.tail_count = 0
        n_rec = len(range(0, n_steps, record_every)) if record_every is not None else 0
        self.rec_theta = [np.empty((n_rec, *s.theta.shape)) for s in states]
        self.rec_frozen = [np.empty((n_rec, *s.frozen.shape), dtype=bool) for s in states]
        self.stop = 0
        self.positions = self.excluded = self.blowup_step = None

    def book(self, step):
        """Add the estimates after `step` to the tail sums, and record them
        if `record_every` divides it; called for each step in order."""
        if step >= self.tail_start:
            for total, state in zip(self.tail_sums, self.states):
                total += state.theta
            self.tail_count += 1
        if self.record_every is not None and step % self.record_every == 0:
            row = step // self.record_every
            for theta, frozen, state in zip(self.rec_theta, self.rec_frozen, self.states):
                theta[row] = state.theta
                frozen[row] = state.frozen
        self.stop = step + 1

    def pad(self, stop):
        """Book the steps up to `stop` that a slice whose replicates all
        blew up did not see, as the whole batch books them: its estimates
        are held from the blow-up on."""
        for step in range(self.stop, stop):
            self.book(step)


class _Estimators:
    """Observer that runs the estimators of one slice of a batch (rule k
    reads `setups[k]` and updates the slice's state k in place) and books
    each step in the slice's `_Slice`."""

    def __init__(self, setups, model, dt, part):
        self.setups = setups
        self.model = model
        self.dt = dt
        self.part = part
        # looked up by name when the run starts, so a wrapper put on the
        # module attribute sees every call
        self.rules = [getattr(est, RULES[s.kind]) for s in setups]

    def on_step(self, step, t, positions, dx, stat, keep):
        model, dt = self.model, self.dt
        for rule, setup, state in zip(self.rules, self.setups, self.part.states):
            rule(state, setup, model, dt, positions, dx, stat, t, keep)
        self.part.book(step)


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
    """Simulate one replicate per seed with the estimators observing every step.

    The seeds are cut into `n_slices` contiguous slices, which run in this
    process and forked workers (`workers.map_claimed`); one slice runs
    here.  The slices' arrays are joined along R in seed order.
    """
    seeds = tuple(int(s) for s in seeds)
    setups = list(estimator_setups)
    R = len(seeds)
    tail_start = n_steps - max(1, int(round(tail_fraction * n_steps)))
    k = n_slices(R, n_particles, n_steps)
    cuts = [-(-R * j // k) for j in range(k + 1)]  # 3 replicates on 2 CPUs: 2 + 1

    def run_slice(cut):
        lo, hi = cut
        states = [  # copies: the rules never write the caller's arrays
            EstimatorState(theta=np.array(np.broadcast_to(
                s.theta_init, (R, np.shape(s.theta_init)[-1]))[lo:hi], dtype=float))
            for s in setups
        ]
        part = _Slice(states, n_steps, record_every, tail_start)
        # an overflowing estimator is frozen and reported by `squared_errors`;
        # numpy's warning would only put a stray line ahead of the CLI's error
        with np.errstate(over="ignore"):
            part.positions, part.excluded, part.blowup_step = simulate(
                model, truth, n_particles, dt, n_steps, seeds[lo:hi],
                (_Estimators(setups, model, dt, part),)
            )
        return part

    parts = workers.map_claimed(
        run_slice, list(zip(cuts, cuts[1:])), sorted(range(k), key=lambda j: cuts[j] - cuts[j + 1]),
        lambda cut: f"replicates {cut[0]} to {cut[1] - 1}", fork=k > 1,
    )
    stop = max(part.stop for part in parts)
    for part in parts:
        part.pad(stop)  # a slice whose replicates all blew up stopped early
    recorded = range(0, stop, record_every) if record_every is not None else range(0)
    n_rec, cat = len(recorded), np.concatenate
    tracks = [
        EstimatorTrack(
            setup=setup,
            record_steps=np.asarray(recorded, dtype=np.int64),
            theta_path=cat([part.rec_theta[j][:n_rec] for part in parts], axis=1),
            frozen_path=cat([part.rec_frozen[j][:n_rec] for part in parts], axis=1),
            tail_mean=cat([part.tail_sums[j] for part in parts]) / max(parts[0].tail_count, 1),
            final=cat([part.states[j].theta for part in parts]),
            frozen_final=cat([part.states[j].frozen for part in parts]),
        )
        for j, setup in enumerate(setups)
    ]
    return BatchResult(
        tracks=tracks,
        excluded=cat([part.excluded for part in parts]),
        blowup_step=cat([part.blowup_step for part in parts]),
        final_positions=cat([part.positions for part in parts]),
        n_steps=n_steps,
    )


def batch_seeds(base_seed: int, replicates: int):
    return tuple(replicate_seed(base_seed, r) for r in range(replicates))
