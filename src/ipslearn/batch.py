"""Stacked execution of independent replicates.

Replicates of one experiment share nothing but the model and the truth
schedule, so they advance in lockstep as a (R, N, d) array with one noise
stream per (replicate, particle).  The estimator kernels broadcast over the
replicate axis, which keeps long sweeps and large replicate counts fast
without changing any per-replicate arithmetic.

Replicates that blow up (or whose estimator diverges) are frozen in place,
flagged with the offending step index, and excluded from aggregation; the
run fails only if every replicate fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .estimators import (
    EstimatorState,
    LearningRateSchedule,
    RmsPropConfig,
    TripletSet,
    UpdateOptions,
    build_cyclic_triplets,
)
from .models import Box, InteractionModel, TruthSchedule, weight_matrix
from .rng import (
    PARAM_INIT_STREAM,
    BlockedNoise,
    InvalidConfiguration,
    RngStream,
    replicate_seed,
)
from .sde import BLOWUP_THRESHOLD, realized_qv, step_positions

ESTIMATOR_KINDS = ("averaged", "triplet", "averaged_m", "triplet_m", "diffusion")


@dataclass
class EstimatorSetup:
    """Runtime description of one online estimator attached to a run."""

    kind: str
    label: str = ""
    particle: int = 0
    triplet: tuple = (0, 1, 2)
    pi: tuple | None = None
    schedule: LearningRateSchedule = None
    free_mask: np.ndarray | None = None
    bounds: Box | None = None
    rmsprop: RmsPropConfig | None = None
    weight: np.ndarray | None = None
    theta_init: np.ndarray = None  # (R, p) or (p,)

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidConfiguration(f"unknown estimator kind {self.kind!r}")
        if not self.label:
            self.label = self.kind

    def options(self, model) -> UpdateOptions:
        """Update options with the weight matrix resolved once, for every step."""
        mask = None
        if self.free_mask is not None:
            mask = np.asarray(self.free_mask, dtype=float)
        weight = self.weight if self.weight is not None else weight_matrix(model)
        return UpdateOptions(
            bounds=self.bounds, free_mask=mask, rmsprop=self.rmsprop, weight=weight
        )


@dataclass
class EstimatorTrack:
    label: str
    kind: str
    record_steps: np.ndarray  # (n_rec,)
    record_times: np.ndarray
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
    dt: float
    seeds: tuple

    def track(self, label) -> EstimatorTrack:
        for tr in self.tracks:
            if tr.label == label:
                return tr
        raise KeyError(label)


class _RunningEstimator:
    """One estimator of a batch; its state arrays are updated in place."""

    def __init__(self, setup: EstimatorSetup, model, n_replicates, n_particles):
        self.setup = setup
        theta0 = np.asarray(setup.theta_init, dtype=float)
        if theta0.ndim == 1:
            theta0 = np.broadcast_to(theta0, (n_replicates, theta0.shape[0]))
        # a copy: the state is updated in place, never the caller's theta_init
        self.state = EstimatorState(theta=theta0.copy())
        self.options = setup.options(model)
        self.triplets: TripletSet | None = None
        if setup.kind == "triplet_m":
            self.triplets = build_cyclic_triplets(setup.pi, n_particles)
        self.needs_qv = setup.kind == "diffusion"

    def update(self, model, positions, dx, dqv, dt, t, stat, keep):
        """Advance the state by one step; replicates marked in `keep` stay put."""
        s, state = self.setup, self.state
        common = (s.schedule, t, self.options)
        kw = {"keep": keep, "in_place": True}
        if s.kind == "averaged":
            est.update_averaged(
                state, model, s.particle, positions, dx, dt, *common, stat=stat, **kw
            )
        elif s.kind == "triplet":
            i, j, k = s.triplet
            est.update_three_particle(
                state, model, positions[..., i, :], positions[..., j, :],
                positions[..., k, :], dx[..., i, :], dt, *common, **kw,
            )
        elif s.kind == "averaged_m":
            est.update_m_averaged_full(
                state, model, s.pi, positions, dx, dt, *common, stat=stat, **kw
            )
        elif s.kind == "triplet_m":
            est.update_m_averaged_triplets(
                state, model, self.triplets, positions, dx, dt, *common, **kw
            )
        else:  # diffusion
            est.update_diffusion(state, model, s.particle, positions, dqv, dt, *common, **kw)


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


def run_batch(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    seeds,
    estimator_setups=(),
    eta_true=None,
    record_every: int | None = None,
    tail_fraction: float = 0.1,
) -> BatchResult:
    if n_steps < 1:
        raise InvalidConfiguration("n_steps must be >= 1")
    if dt <= 0:
        raise InvalidConfiguration("dt must be positive")
    seeds = tuple(int(s) for s in seeds)
    R, N, d = len(seeds), n_particles, model.d

    streams = [RngStream(s, i) for s in seeds for i in range(N)]
    noise = BlockedNoise(streams, d, dt)
    positions = noise.initial_positions().reshape(R, N, d)

    runners = [_RunningEstimator(setup, model, R, N) for setup in estimator_setups]
    needs_qv = any(r.needs_qv for r in runners)

    active = np.ones(R, dtype=bool)
    keep = None  # ~active once a replicate is excluded: it no longer moves
    blowup_step = np.full(R, -1, dtype=np.int64)

    tail_start = n_steps - max(1, int(round(tail_fraction * n_steps)))
    tail_sums = [np.zeros_like(r.state.theta) for r in runners]
    tail_count = 0

    rec_steps = []
    rec_theta = [[] for _ in runners]
    rec_frozen = [[] for _ in runners]

    theta_true_cache = None
    truth_is_constant = truth.kind == "constant"

    for step in range(n_steps):
        t = step * dt
        if truth_is_constant:
            if theta_true_cache is None:
                theta_true_cache = truth.at(0.0)
            theta_true = theta_true_cache
        else:
            theta_true = truth.at(t)

        stat = model.mean_field(positions)  # shared by the drift and every estimator
        dw = noise.next_step().reshape(R, N, d)
        new_pos, dx = step_positions(model, theta_true, positions, dw, dt, eta_true, stat)

        # one pass: the max is NaN or inf, and fails the test, if any entry is
        ok = np.abs(new_pos.reshape(R, -1)).max(axis=1) <= BLOWUP_THRESHOLD
        newly_dead = active & ~ok
        if newly_dead.any():
            blowup_step[newly_dead] = step
            active &= ok
            if not active.any():
                # everything blew up: freeze state and stop early
                positions = np.where(newly_dead[:, None, None], positions, new_pos)
                break
            keep = ~active
        if keep is not None:
            np.copyto(new_pos, positions, where=keep[:, None, None])
            dx[keep] = 0.0

        dqv = realized_qv(dx) if needs_qv else None
        for r in runners:
            r.update(model, positions, dx, dqv, dt, t, stat, keep)

        if step >= tail_start:
            for k, r in enumerate(runners):
                tail_sums[k] += r.state.theta
            tail_count += 1

        if record_every is not None and step % record_every == 0:
            rec_steps.append(step)
            for k, r in enumerate(runners):
                rec_theta[k].append(r.state.theta.copy())
                rec_frozen[k].append(r.state.frozen.copy())

        positions = new_pos

    tracks = []
    for k, r in enumerate(runners):
        steps_arr = np.asarray(rec_steps, dtype=np.int64)
        tracks.append(
            EstimatorTrack(
                label=r.setup.label,
                kind=r.setup.kind,
                record_steps=steps_arr,
                record_times=steps_arr * dt,
                theta_path=np.asarray(rec_theta[k]) if rec_theta[k] else np.empty((0, R, r.state.theta.shape[-1])),
                frozen_path=np.asarray(rec_frozen[k]) if rec_frozen[k] else np.empty((0, R), dtype=bool),
                tail_mean=tail_sums[k] / max(tail_count, 1),
                final=r.state.theta.copy(),
                frozen_final=r.state.frozen.copy(),
            )
        )
    return BatchResult(
        tracks=tracks,
        excluded=~active,
        blowup_step=blowup_step,
        final_positions=positions,
        n_steps=n_steps,
        dt=dt,
        seeds=seeds,
    )


def batch_seeds(base_seed: int, replicates: int):
    return tuple(replicate_seed(base_seed, r) for r in range(replicates))


class OnlineEstimatorObserver:
    """Single-trajectory observer wrapping the same update kernels.

    Reference-path counterpart of the stacked runner, for tests and the
    trajectory-level API; records the full estimate path.
    """

    def __init__(self, setup: EstimatorSetup, model, dt, n_particles):
        self.setup = setup
        self.model = model
        self.dt = dt
        theta0 = np.asarray(setup.theta_init, dtype=float)
        if theta0.ndim != 1:
            raise InvalidConfiguration("observer needs a single (p,) initial value")
        self.state = EstimatorState(theta=theta0)
        self.options = setup.options(model)
        self.triplets = (
            build_cyclic_triplets(setup.pi, n_particles) if setup.kind == "triplet_m" else None
        )
        self.path = []
        self.frozen_path = []

    def on_step(self, step, t, ensemble, increments, new_ensemble):
        s = self.setup
        pos, dx = ensemble.positions, increments.dX
        if s.kind == "averaged":
            self.state = est.update_averaged(
                self.state, self.model, s.particle, pos, dx, self.dt, s.schedule, t, self.options
            )
        elif s.kind == "triplet":
            i, j, k = s.triplet
            self.state = est.update_three_particle(
                self.state, self.model, pos[i], pos[j], pos[k], dx[i], self.dt,
                s.schedule, t, self.options,
            )
        elif s.kind == "averaged_m":
            self.state = est.update_m_averaged_full(
                self.state, self.model, s.pi, pos, dx, self.dt, s.schedule, t, self.options
            )
        elif s.kind == "triplet_m":
            self.state = est.update_m_averaged_triplets(
                self.state, self.model, self.triplets, pos, dx, self.dt, s.schedule, t, self.options
            )
        else:
            self.state = est.update_diffusion(
                self.state, self.model, s.particle, pos, increments.dQV, self.dt,
                s.schedule, t, self.options,
            )
        self.path.append(self.state.theta.copy())
        self.frozen_path.append(bool(np.any(self.state.frozen)))

    def finish(self):
        pass
