"""Shared helpers: finite-difference oracles, random probe generators, the
environment of a child Python and a fork that fails."""

import errno
import os
from pathlib import Path

import numpy as np
import pytest

from ipslearn.models import MODEL_ZOO, make_model
from ipslearn.rng import BlockedNoise


def fd_grad_pair(model, theta, x, y, h=1e-6):
    """Central finite difference of the pair drift in theta, shape (p, d)."""
    out = np.empty((model.p, model.d))
    for k in range(model.p):
        e = np.zeros(model.p)
        e[k] = h
        out[k] = (model.drift_pair(theta + e, x, y) - model.drift_pair(theta - e, x, y)) / (2 * h)
    return out


def fd_grad_contrast(model, theta, x, positions, theta_true, contrast, h=1e-5):
    """Central finite difference of a scalar contrast in theta, shape (p,)."""
    out = np.empty(model.p)
    for k in range(model.p):
        e = np.zeros(model.p)
        e[k] = h
        out[k] = (
            contrast(model, theta + e, x, positions, theta_true)
            - contrast(model, theta - e, x, positions, theta_true)
        ) / (2 * h)
    return out


def random_probe(model, rng):
    """One (theta, x, y) probe with O(1) magnitudes."""
    theta = rng.standard_normal(model.p)
    x = rng.standard_normal(model.d)
    y = rng.standard_normal(model.d)
    return theta, x, y


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment for a child Python that imports `ipslearn` from this
    checkout: `src` ahead of any PYTHONPATH the tests were started with
    (pytest puts `src` on its own path only)."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}


def build_zoo_model(model_id):
    """The zoo model `model_id`; one with diffusion parameters gets eta = 0.7."""
    return make_model(model_id, **({"eta": 0.7} if MODEL_ZOO[model_id].eta_names else {}))


@pytest.fixture(params=sorted(MODEL_ZOO))
def zoo_model(request):
    return build_zoo_model(request.param)


@pytest.fixture
def start_at(monkeypatch):
    """`start_at(value)` starts every particle of the simulations that follow
    at `value`, in place of its stream's first draws, which are left unread."""

    def start(value):
        monkeypatch.setattr(BlockedNoise, "initial_positions",
                            lambda self: np.full((len(self.streams), self.d), float(value)))

    return start


def fail_forks_after(monkeypatch, forkable):
    """Make os.fork fail with EAGAIN from its (forkable + 1)-th call on, as
    when no process is left to spare, without starting real processes to
    reach the limit.  Returns the list that records each call."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        if len(calls) > forkable:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls
