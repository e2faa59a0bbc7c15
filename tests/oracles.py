"""Reference computations the tests check the program against.

No program code calls these; they are the paper's closed forms and the
plain-loop versions of quantities the library computes in batch:

- `grad_H`, `grad_h`, `grad_h_sym`: the particle and pairwise contrast
  gradients, against which the estimators' update directions and the
  contrasts' finite differences are checked
- `linear_model_analytic_objective`: the mean-field limit of the linear
  model's time-averaged contrast, which the surface scans approach
- `rho_rate`, `poc_rate`, `rate_function_a`: the rates in the paper's
  finite-particle and convergence-to-equilibrium bounds
- `truth_stationarity`: the averaged-estimator update accumulated at the
  pinned true parameter, statistically zero there
- `averaged_mean_list`, `triplet_mean_list`: the M-averaged gradients as a
  list with one evaluation per index, added in list order, against which
  the update rules are checked bit for bit
"""

import numpy as np

from ipslearn.estimators import _weighted, averaged_gradient, triplet_gradient
from ipslearn.models import weight_matrix
from ipslearn.sde import run_trajectory


# ---------------------------------------------------------------------------
# Contrast gradients


def grad_H(model, theta, x, positions, theta_true, W=None):
    """G(theta, x, mu_N) W (B(theta, x, mu_N) - B(theta_true, x, mu_N))."""
    W = weight_matrix(model) if W is None else W
    r = model.drift_mean(theta, x, positions) - model.drift_mean(theta_true, x, positions)
    return _weighted(model.grad_mean(theta, x, positions), W, r)


def grad_h(model, theta, x, y, z, positions, theta_true, W=None):
    """g(theta, x, y) W (b(theta, x, z) - B(theta_true, x, mu_N))."""
    W = weight_matrix(model) if W is None else W
    r = model.drift_pair(theta, x, z) - model.drift_mean(theta_true, x, positions)
    return _weighted(model.grad_pair(theta, x, y), W, r)


def grad_h_sym(model, theta, x, y, z, positions, theta_true, W=None):
    """Symmetrised pairwise gradient, the exact d_theta of contrast_ell."""
    return 0.5 * (
        grad_h(model, theta, x, y, z, positions, theta_true, W)
        + grad_h(model, theta, x, z, y, positions, theta_true, W)
    )


# ---------------------------------------------------------------------------
# M-averaged gradients, one index at a time


def _list_mean(terms):
    return sum(terms[1:], terms[0]) / len(terms)


def averaged_mean_list(model, theta, positions, dx, dt, W, particles, stat=None):
    """Mean over i in Pi of the averaged gradient, one evaluation per i."""
    return _list_mean([
        averaged_gradient(model, theta, positions[..., i, :], positions, dx[..., i, :], dt, W, stat)
        for i in particles
    ])


def triplet_mean_list(model, theta, positions, dx, dt, W, triplets):
    """Mean over (i, j, k) in C(Pi) of the three-particle gradient, one
    evaluation per triplet."""
    return _list_mean([
        triplet_gradient(
            model, theta, positions[..., i, :], positions[..., j, :], positions[..., k, :],
            dx[..., i, :], dt, W,
        )
        for i, j, k in triplets
    ])


# ---------------------------------------------------------------------------
# Analytic oracle for the linear model


def linear_model_analytic_objective(theta, theta_true, sigma):
    """Mean-field limit of the time-averaged particle contrast, linear model.

    Under the stationary zero-mean Gaussian law the drift difference is
    -((theta1+theta2) - (theta01+theta02)) * x, so the contrast averages to
    ds^2 * v0 / (2 sigma^2) with v0 = sigma^2 / (2 (theta01+theta02)).  Zero
    exactly on the ridge theta1 + theta2 = theta01 + theta02.  The stationary
    law needs theta01 + theta02 > 0.
    """
    theta = np.asarray(theta, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    s0 = theta_true[0] + theta_true[1]
    ds = (theta[0] + theta[1]) - s0
    v0 = sigma**2 / (2.0 * s0)
    return ds**2 * v0 / (2.0 * sigma**2)


# ---------------------------------------------------------------------------
# Rate functions


def rho_rate(n: int, d: int) -> float:
    """Empirical-measure Wasserstein rate: N^-1/4 below dimension 4,
    N^-1/4 sqrt(log(1+N)) at 4, N^-1/d above."""
    if d < 4:
        return n ** (-0.25)
    if d == 4:
        return n ** (-0.25) * np.sqrt(np.log1p(n))
    return n ** (-1.0 / d)


def poc_rate(n: int, alpha: float) -> float:
    """Coupling-inherited rate N^(-1/(2(1+alpha))) entering the gradient bounds."""
    return n ** (-1.0 / (2.0 * (1.0 + alpha)))


def rate_function_a(t: float, x: float, alpha: float, A: float, C: float = 1.0) -> float:
    """Convergence-to-equilibrium rate function a_t(x).

    alpha > 0: [x^-alpha + A (alpha/(2+alpha))^(1+alpha/2) t]^(-2/alpha)
    alpha = 0: C^2 x^2 exp(-2 A t)
    """
    if alpha == 0:
        return C**2 * x**2 * np.exp(-2.0 * A * t)
    bracket = x ** (-alpha) + A * (alpha / (2.0 + alpha)) ** (1.0 + alpha / 2.0) * t
    return bracket ** (-2.0 / alpha)


# ---------------------------------------------------------------------------
# Truth-pinned update stationarity


def truth_stationarity(model, truth, n_particles, dt, n_steps, seed, schedule, particle=0):
    """Accumulate the averaged-estimator update at the pinned true parameter.

    At the truth the descent term vanishes and the update is a martingale
    increment sequence, so the time-averaged update should be statistically
    zero.  Returns (mean, stderr, z) per parameter.
    """
    W = weight_matrix(model)
    sums = np.zeros(model.p)
    sq_sums = np.zeros(model.p)
    count = 0

    class _Collector:
        def on_step(self, step, t, positions, dx, stat, keep):
            nonlocal count
            pos = positions[0]
            D = averaged_gradient(
                model, truth.at(t), pos[particle], pos, dx[0, particle], dt, W
            )
            upd = -schedule.value(t) * D
            sums[:] += upd
            sq_sums[:] += upd**2
            count += 1

    run_trajectory(model, truth, n_particles, dt, n_steps, seed, observers=[_Collector()])
    mean = sums / count
    var = sq_sums / count - mean**2
    se = np.sqrt(var / count)
    return mean, se, mean / se
