"""Online parameter-update rules driven by the observation increment stream.

All updates discretise the continuous-time gradient flow with explicit Euler
on the same step grid as the state SDE, the parameter being evaluated at the
step start.  The core residual is B(theta)*dt - dx (or its pairwise
counterpart), weighted by (sigma sigma^T)^-1 or the identity depending on
the model's weighting mode.

Update rules broadcast over leading batch axes, so the same code serves a
single trajectory and a stacked array of replicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Learning-rate schedules


@dataclass(frozen=True)
class LearningRateSchedule:
    """gamma(t) = scale * gamma0           (constant)
               = scale * gamma0 * (1+t)^-beta   (power-law)

    `scale` is a fixed positive per-parameter vector; the time dependence is
    a shared scalar.  `config` checks gamma0 > 0, beta in (0, 1] and scale > 0.
    `value(t)` is the 1-d rate vector, computed once (read-only) when the
    schedule is constant.
    """

    kind: str
    gamma0: float
    beta: float | None = None
    scale: np.ndarray | None = None

    def __post_init__(self):
        if self.scale is not None:
            object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        object.__setattr__(self, "_fixed", None)
        if self.kind == "constant":
            object.__setattr__(self, "_fixed", self.value(0.0))
            self._fixed.flags.writeable = False

    def value(self, t) -> np.ndarray:
        if self._fixed is not None:
            return self._fixed
        g = self.gamma0 if self.kind == "constant" else self.gamma0 * (1.0 + t) ** (-self.beta)
        return g * self.scale if self.scale is not None else np.array([g])


@dataclass(frozen=True)
class ScheduleReport:
    robbins_monro_ok: bool  # integral conditions for a.s. convergence
    rate_conditions_ok: bool  # stronger conditions for L2 rate / CLT regime
    mode: str  # "consistent" or "tracking"
    notes: tuple


def validate_schedule(schedule: LearningRateSchedule) -> ScheduleReport:
    """Check the step-size integral conditions for the schedule family.

    Constant schedules have a divergent squared integral: they track
    time-varying truths but carry no consistency guarantee.  Power laws
    gamma0*(1+t)^-beta satisfy the convergence conditions iff beta in
    (1/2, 1], and the stronger rate/CLT conditions iff beta in (1/2, 1).
    """
    notes = []
    if schedule.kind == "constant":
        notes.append(
            "constant learning rate: integral of gamma^2 diverges; "
            "tracking mode, no consistency guarantee"
        )
        return ScheduleReport(False, False, "tracking", tuple(notes))
    beta = schedule.beta
    rm_ok = 0.5 < beta <= 1.0
    rate_ok = 0.5 < beta < 1.0
    if not rm_ok:
        notes.append(
            f"beta={beta} violates the convergence conditions "
            "(integral of gamma^2 diverges for beta <= 1/2)"
        )
    elif not rate_ok:
        notes.append("beta=1 meets the convergence conditions but not the rate conditions")
    return ScheduleReport(rm_ok, rate_ok, "consistent" if rm_ok else "tracking", tuple(notes))


# ---------------------------------------------------------------------------
# Cyclic triplets


def build_cyclic_triplets(pi) -> tuple:
    """Cyclic triplets C(Pi) of an ordered index subset Pi.

    For |Pi| >= 3 the triples are (i_l, i_{l+1}, i_{l+2}) with indices taken
    cyclically.  For |Pi| in {1, 2}, Pi is first extended to size 3 with the
    smallest indices not already in Pi (always among 0, 1 and 2), the cyclic
    triples of the extension are formed, and only those whose first index
    lies in the original Pi are kept, so the result size is always |Pi|.
    `config` checks that Pi is non-empty and distinct, and that N >= 3 when
    |Pi| < 3.
    """
    pi = list(pi)
    if len(pi) < 3:
        aux = [i for i in range(3) if i not in pi]
        extended = pi + aux[: 3 - len(pi)]
        return tuple(t for t in _cyclic(extended) if t[0] in pi)
    return _cyclic(pi)


def _cyclic(idx):
    m = len(idx)
    return tuple((idx[l], idx[(l + 1) % m], idx[(l + 2) % m]) for l in range(m))


# ---------------------------------------------------------------------------
# Estimator state


@dataclass
class EstimatorState:
    """Current estimate plus preconditioner accumulator and freeze flag.

    Fields carry arbitrary leading batch axes; `frozen` is boolean with the
    batch shape (a 0-d array for a single trajectory).  Once frozen flips to
    True it never reverts and all later updates pass through unchanged.
    The update rules write into these arrays in place.
    """

    theta: np.ndarray
    precond_acc: np.ndarray | None = None
    frozen: np.ndarray | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.precond_acc is None:
            self.precond_acc = np.zeros_like(self.theta)
        if self.frozen is None:
            self.frozen = np.zeros(self.theta.shape[:-1], dtype=bool)
        self.frozen = np.asarray(self.frozen, dtype=bool)


@dataclass(frozen=True)
class RmsPropConfig:
    rho: float = 0.99
    eps: float = 1e-8


def rmsprop_precondition(raw_update, state: EstimatorState, lr_vec, cfg: RmsPropConfig):
    """Scale the raw step by the root of an EMA of squared gradients.

    The accumulator sees the learning-rate-normalised gradient
    grad = raw_update / gamma, so the preconditioner is invariant to the
    schedule level.  Returns (preconditioned step, new accumulator).
    """
    grad = raw_update / lr_vec
    acc = cfg.rho * state.precond_acc + (1.0 - cfg.rho) * grad * grad
    return raw_update / (np.sqrt(acc) + cfg.eps), acc


def _apply_raw_update(state, D, t, setup, keep=None):
    """Common tail of every update rule: step, mask, precondition, freeze, clamp.

    The raw step is -gamma(t) * D, masked and, with RMSProp, preconditioned.
    A replicate, or an unbatched state, freezes for good on a non-finite
    step or on a proposal outside the bounds, keeping its last value.
    Works in place on `state`'s arrays.  `keep` (bool, batch-shaped) marks
    replicates that must not change at all this step.

    No box (`setup.bounds` None, as `config` gives a drift estimator
    without bounds) means no bound check.  That is the same as a box that
    is -inf to +inf at every end: such a box rejects only a NaN proposal,
    theta is never NaN and a finite step moves +-inf only to itself, so a
    NaN proposal needs a non-finite step, and that replicate is frozen here
    before it moves.
    """
    lr_vec = setup.schedule.value(t)
    step = -lr_vec * D
    if setup.free_mask is not None:
        step = step * setup.free_mask
    if setup.rmsprop is not None:
        with np.errstate(invalid="ignore"):  # inf/inf of a non-finite raw step: frozen below
            step, acc = rmsprop_precondition(step, state, lr_vec, setup.rmsprop)
    hold = state.frozen if keep is None else state.frozen | keep
    freeze = None  # replicates newly frozen by this step
    if not np.isfinite(step).all():
        finite = np.isfinite(step).all(axis=-1)
        if not finite.all():
            freeze = ~finite
            hold = hold | freeze
    if setup.bounds is not None:
        outside = ~setup.bounds.contains(state.theta + step)
        hold = hold | outside
        freeze = outside if freeze is None else freeze | outside
    if hold.any():
        move = ~hold[..., None]
        np.add(state.theta, step, out=state.theta, where=move)
        if setup.rmsprop is not None:
            np.copyto(state.precond_acc, acc, where=move)
    else:
        state.theta += step
        if setup.rmsprop is not None:
            state.precond_acc[...] = acc
    if freeze is not None:
        np.logical_or(state.frozen, freeze if keep is None else freeze & ~keep, out=state.frozen)


def _weighted(G, W, resid):
    """G W r with G (..., p, d), W (d, d), r (..., d) -> (..., p)."""
    return np.einsum("...pd,de,...e->...p", G, W, resid)


# ---------------------------------------------------------------------------
# Gradient estimates (drift of the parameter update, before -gamma scaling)


def averaged_gradient(model, theta, x_i, positions, dx_i, dt, W, stat=None):
    """G(theta, x_i, mu_N) W [B(theta, x_i, mu_N) dt - dx_i].

    `stat` is the ensemble's `model.mean_field(positions)` when the caller
    already has it.
    """
    B = model.drift_mean(theta, x_i, positions, stat)
    G = model.grad_mean(theta, x_i, positions, stat)
    return _weighted(G, W, B * dt - dx_i)


def triplet_gradient(model, theta, x_i, x_j, x_k, dx_i, dt, W):
    """g(theta, x_i, x_j) W [b(theta, x_i, x_k) dt - dx_i]."""
    b = model.drift_pair(theta, x_i, x_k)
    g = model.grad_pair(theta, x_i, x_j)
    return _weighted(g, W, b * dt - dx_i)


def _mean(terms):
    """Mean of a list of arrays, summed in list order.  One term is its own
    mean (x / 1 is x bit for bit), so it is returned as it is."""
    if len(terms) == 1:
        return terms[0]
    return sum(terms[1:], terms[0]) / len(terms)


def _averaged_mean(state, setup, model, dt, positions, dx, stat):
    """Mean of the averaged gradient over the particles of `setup`, one
    evaluation per particle."""
    theta, W = state.theta, setup.weight
    return _mean([
        averaged_gradient(model, theta, positions[..., i, :], positions, dx[..., i, :], dt, W, stat)
        for i in setup.particles
    ])


def _triplet_mean(state, setup, model, dt, positions, dx):
    """Mean of the three-particle gradient over the triplets of `setup`, one
    evaluation per triplet."""
    theta, W = state.theta, setup.weight
    return _mean([
        triplet_gradient(
            model, theta, positions[..., i, :], positions[..., j, :], positions[..., k, :],
            dx[..., i, :], dt, W,
        )
        for i, j, k in setup.triplets
    ])


# ---------------------------------------------------------------------------
# Update rules
#
# One per estimator kind, all with the signature
#
#     rule(state, setup, model, dt, positions, dx, stat, t, keep)
#
# `setup` is the estimator's `batch.EstimatorSetup` as `config` resolved it,
# read as it is: its indices, weight matrix (None only for diffusion),
# schedule, float free mask, box and RMSProp settings.  Each rule forms its
# kind's gradient estimate D from the ensemble at the step start
# (`positions`, (..., N, d)), the increments realised over the step (`dx`)
# and the ensemble statistic `stat` = model.mean_field(positions), then
# hands D to `_apply_raw_update`, which advances `state` in place with the
# schedule evaluated at the step-start time t.  `keep` marks replicates to
# leave untouched (None while there are none).  A rule with a single particle or triplet is its M-averaged
# form over that one index: the mean of one term is the term itself.


def update_averaged(state, setup, model, dt, positions, dx, stat, t, keep):
    """Full-observation update from one particle's residual against the
    empirical-measure drift."""
    D = _averaged_mean(state, setup, model, dt, positions, dx, stat)
    _apply_raw_update(state, D, t, setup, keep)


def update_three_particle(state, setup, model, dt, positions, dx, stat, t, keep):
    """Three-particle update; reads only the states of its triplet (i, j, k)
    and the increment of i, never the full ensemble."""
    _apply_raw_update(state, _triplet_mean(state, setup, model, dt, positions, dx), t, setup, keep)


def update_m_averaged_full(state, setup, model, dt, positions, dx, stat, t, keep):
    """Single update from the mean averaged gradient over the primary indices
    Pi.  `config` holds Pi sorted, so the summation order (hence the float
    result) does not depend on the order Pi was supplied in."""
    D = _averaged_mean(state, setup, model, dt, positions, dx, stat)
    _apply_raw_update(state, D, t, setup, keep)


def update_m_averaged_triplets(state, setup, model, dt, positions, dx, stat, t, keep):
    """Single update from the mean three-particle gradient over C(Pi)."""
    _apply_raw_update(state, _triplet_mean(state, setup, model, dt, positions, dx), t, setup, keep)


def update_diffusion(state, setup, model, dt, positions, dx, stat, t, keep):
    """Diffusion-parameter update matching realized quadratic variation.

    For scalar noise: eta <- eta - delta * d_eta(sigma^2) * (sigma^2 dt - dX_i^2),
    whose fixed point is the realized quadratic variation dX_i^2 of the
    particle matching the model's instantaneous variance.  Needs a model
    with `eta_names`.
    """
    (i,) = setup.particles
    x_i, dx_i = positions[..., i, :], dx[..., i, :]
    diffusion = model.diffusion
    sig_sq = diffusion.sigma_sq(state.theta, x_i)
    D = diffusion.d_eta_sigma_sq(state.theta, x_i) * (sig_sq * dt - dx_i * dx_i)
    _apply_raw_update(state, D, t, setup, keep)
