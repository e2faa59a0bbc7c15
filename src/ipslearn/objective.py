"""Contrast functions and their time-averaged surface scans.

The particle-level contrast

    L(theta, x, mu) = 1/2 || B(theta, x, mu) - B(theta0, x, mu) ||_W^2

is non-negative and vanishes at the true parameter; its pairwise expansion

    L = (1/N^2) sum_{j,k} ell(theta, x, x_j, x_k)

underlies the three-particle estimator.  Scans accumulate time averages of
these contrasts along a simulated trajectory, reproducing the likelihood
surfaces (and their non-identifiability ridge for the linear model).
"""

from __future__ import annotations

import itertools

import numpy as np

from .models import InteractionModel, TruthSchedule, weight_matrix
from .sde import PositionHistory, run_trajectory

# steps per block of a scan's time average; the blocks fix the summation
# order, so changing this moves surface.csv's bytes
SCAN_CHUNK_STEPS = 20_000


def _w_inner(a, W, b):
    return 0.5 * np.einsum("...d,de,...e->...", a, W, b)


def contrast_L(model, theta, x, positions, theta_true, W=None):
    """1/2 ||B(theta, x, mu_N) - B(theta_true, x, mu_N)||_W^2 (non-negative)."""
    W = weight_matrix(model) if W is None else W
    r = model.drift_mean(theta, x, positions) - model.drift_mean(theta_true, x, positions)
    return _w_inner(r, W, r)


def contrast_ell(model, theta, x, y, z, positions, theta_true, W=None):
    """Polarised pairwise contrast; may be negative for y != z."""
    W = weight_matrix(model) if W is None else W
    B0 = model.drift_mean(theta_true, x, positions)
    ry = model.drift_pair(theta, x, y) - B0
    rz = model.drift_pair(theta, x, z) - B0
    return _w_inner(ry, W, rz)


# ---------------------------------------------------------------------------
# Surface scans


def surface_scan(
    model: InteractionModel,
    axes,
    n_particles: int,
    dt: float,
    horizon: int,
    burn_in: int,
    scan_kind: str,
    seed: int,
    theta_true,
) -> np.ndarray:
    """Time-averaged contrast over a parameter grid, one value per grid point.

    The result has shape (len(axes[0]), ..., len(axes[-1])).  One trajectory
    at the true parameter is recorded over steps [burn_in, horizon) and
    replayed across all grid points, so the scan is exactly reproducible and
    variance-reduced.  L_iN observes particle 0 and L_ijkN the triplet
    (0, 1, 2).
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    truth = TruthSchedule.constant(theta_true)
    shape = tuple(len(a) for a in axes)
    values = np.empty(shape)

    hist = PositionHistory(horizon, n_particles, model.d, start=burn_in)
    run_trajectory(model, truth, n_particles, dt, horizon, seed, observers=[hist])
    pos = hist.positions
    W = weight_matrix(model)
    theta0 = np.asarray(theta_true, dtype=float)
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        theta = np.array([axes[k][i] for k, i in enumerate(idx)])
        total, count = 0.0, 0
        for s in range(0, pos.shape[0], SCAN_CHUNK_STEPS):
            block = pos[s : s + SCAN_CHUNK_STEPS]
            if scan_kind == "L_iN":
                vals = contrast_L(model, theta, block[:, 0, :], block, theta0, W)
            else:
                vals = contrast_ell(
                    model, theta, block[:, 0, :], block[:, 1, :], block[:, 2, :],
                    block, theta0, W,
                )
            total += float(vals.sum())
            count += vals.shape[0]
        values[idx] = total / count
    return values
