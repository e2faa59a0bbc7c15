"""Euler-Maruyama integration of the interacting particle system.

A trajectory is advanced with a constant time step; each step emits the
exact state increments, Brownian increments, and realized quadratic
variation consumed by the online estimators.  Mean-field sums are evaluated
in a fixed order so runs are bit-reproducible given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import InteractionModel, TruthSchedule
from .rng import BlockedNoise, InvalidConfiguration, RngStream, particle_streams

BLOWUP_THRESHOLD = 1e6  # |x| guard; superlinear diffusions can explode under Euler


class SimulationBlowup(RuntimeError):
    """A particle left the finite / bounded region; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"simulation blew up at step {step}")


@dataclass(frozen=True)
class ParticleEnsemble:
    """Full system state at one time: N particles in R^d plus the clock."""

    time: float
    positions: np.ndarray  # (N, d)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def state_dim(self) -> int:
        return self.positions.shape[1]

    def validate(self):
        if self.positions.ndim != 2 or min(self.positions.shape) < 1:
            raise InvalidConfiguration("positions must be a non-empty N x d matrix")
        if not np.all(np.isfinite(self.positions)):
            raise InvalidConfiguration("non-finite particle positions")


@dataclass(frozen=True)
class IncrementBatch:
    """One step's observation: dW, dX, and dQV = dX dX^T per particle."""

    dW: np.ndarray  # (N, d)
    dX: np.ndarray  # (N, d)
    dQV: np.ndarray  # (N, d, d)

    def validate(self, ensemble: ParticleEnsemble):
        n, d = ensemble.positions.shape
        if self.dW.shape != (n, d) or self.dX.shape != (n, d):
            raise InvalidConfiguration("increment shapes do not match the ensemble")
        if self.dQV.shape != (n, d, d):
            raise InvalidConfiguration("dQV must be (N, d, d)")
        if not np.allclose(self.dQV, np.swapaxes(self.dQV, -1, -2)):
            raise InvalidConfiguration("dQV must be symmetric")


def realized_qv(dx: np.ndarray) -> np.ndarray:
    """Per-particle outer product dX dX^T, the discrete proxy for d<x>_t."""
    return dx[..., :, None] * dx[..., None, :]


def step_positions(model, theta_true, positions, dw, dt, eta_true=None, stat=None):
    """One Euler-Maruyama step; returns (new_positions, dx).

    dX = B(theta, x) dt + Sigma dW, with noise entering only the masked
    components (encoded by zero rows of the diffusion).  `stat` is
    `model.mean_field(positions)` when the caller already has it.
    """
    drift = model.drift_ensemble(np.asarray(theta_true, dtype=float), positions, stat)
    dx = drift * dt + model.diffusion.apply(eta_true, positions, dw)
    return positions + dx, dx


def check_blowup(positions, step):
    if not np.all(np.isfinite(positions)):
        raise SimulationBlowup(step, f"non-finite state at step {step}")
    if np.max(np.abs(positions)) > BLOWUP_THRESHOLD:
        raise SimulationBlowup(step, f"|x| exceeded {BLOWUP_THRESHOLD:g} at step {step}")


def advance_step(
    ensemble: ParticleEnsemble,
    model: InteractionModel,
    theta_true,
    dt: float,
    noise: BlockedNoise,
    eta_true=None,
    step: int = 0,
):
    """Advance the ensemble one step, returning (new ensemble, increments)."""
    if dt <= 0:
        raise InvalidConfiguration(f"dt must be positive, got {dt}")
    dw = noise.next_step()
    new_pos, dx = step_positions(model, theta_true, ensemble.positions, dw, dt, eta_true)
    check_blowup(new_pos, step)
    new_ens = ParticleEnsemble(time=ensemble.time + dt, positions=new_pos)
    return new_ens, IncrementBatch(dW=dw, dX=dx, dQV=realized_qv(dx))


def center_particles(ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Project onto the zero-mean hyperplane: y_i = x_i - mean_j x_j."""
    centered = ensemble.positions - ensemble.positions.mean(axis=0, keepdims=True)
    return ParticleEnsemble(time=ensemble.time, positions=centered)


def initial_ensemble(noise: BlockedNoise, init: str = "standard-normal") -> np.ndarray:
    if init != "standard-normal":
        raise InvalidConfiguration(f"unknown initial law {init!r}")
    return noise.initial_positions()


def run_trajectory(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    seed: int,
    observers=(),
    eta_true=None,
    init: str = "standard-normal",
    streams: list[RngStream] | None = None,
    initial_positions: np.ndarray | None = None,
):
    """Drive one trajectory, invoking each observer once per step.

    Observers implement on_step(step, t, ensemble, increments, new_ensemble)
    and optionally finish(); they receive the increments actually applied,
    so estimator updates are deterministic functions of the observation
    stream.  On blowup, observers are finished (partial outputs flushed)
    before the error propagates.
    """
    if n_steps < 1:
        raise InvalidConfiguration(f"n_steps must be >= 1, got {n_steps}")
    if streams is None:
        streams = particle_streams(seed, n_particles)
    noise = BlockedNoise(streams, model.d, dt)
    if initial_positions is None:
        positions = initial_ensemble(noise, init)
    else:
        positions = np.array(initial_positions, dtype=float)
    ensemble = ParticleEnsemble(time=0.0, positions=positions)
    try:
        for step in range(n_steps):
            t = step * dt
            theta_true = truth.at(t)
            new_ens, inc = advance_step(
                ensemble, model, theta_true, dt, noise, eta_true=eta_true, step=step
            )
            for obs in observers:
                obs.on_step(step, t, ensemble, inc, new_ens)
            ensemble = new_ens
    finally:
        for obs in observers:
            finish = getattr(obs, "finish", None)
            if finish is not None:
                finish()
    return ensemble


# ---------------------------------------------------------------------------
# Observers


class TrajectoryRecorder:
    """Collects (step, time, particle, coord, value) rows for the state dump."""

    def __init__(self, record_every: int = 1):
        self.record_every = record_every
        self.rows = []

    def on_step(self, step, t, ensemble, increments, new_ensemble):
        if step % self.record_every:
            return
        pos = ensemble.positions
        for i in range(pos.shape[0]):
            for k in range(pos.shape[1]):
                self.rows.append((step, t, i, k, pos[i, k]))

    def finish(self):
        pass


class PositionHistory:
    """Keeps the raw (T, N, d) position array (used by surface scans)."""

    def __init__(self, n_steps, n_particles, d, start=0):
        self.start = start
        self.positions = np.empty((n_steps - start, n_particles, d))

    def on_step(self, step, t, ensemble, increments, new_ensemble):
        if step >= self.start:
            self.positions[step - self.start] = ensemble.positions


class MomentTracker:
    """Tracks ensemble-mean |x|^(2k) per step for a set of orders.

    Exposes the per-step series, its running supremum, the cumulative time
    average, and a coarse growth flag (second-half mean exceeding the
    first-half mean by `growth_factor`), which catches drifting moments
    before the hard blowup guard trips.
    """

    def __init__(self, n_steps, orders=(2, 4), growth_factor=2.0):
        self.orders = tuple(orders)
        self.growth_factor = growth_factor
        self.series = {k: np.empty(n_steps) for k in self.orders}
        self.n_filled = 0

    def on_step(self, step, t, ensemble, increments, new_ensemble):
        sq = np.sum(ensemble.positions**2, axis=1)
        for k in self.orders:
            self.series[k][step] = np.mean(sq ** (k / 2))
        self.n_filled = step + 1

    def running_max(self, order):
        return np.maximum.accumulate(self.series[order][: self.n_filled])

    def time_average(self, order, burn_in=0):
        return float(np.mean(self.series[order][burn_in : self.n_filled]))

    def growth_detected(self, order=2):
        s = self.series[order][: self.n_filled]
        half = len(s) // 2
        if half == 0:
            return False
        return bool(np.mean(s[half:]) > self.growth_factor * np.mean(s[:half]))

    def finish(self):
        pass
