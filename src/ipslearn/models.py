"""Model zoo for weakly interacting particle systems.

A model declares its pairwise drift b(theta, x, y) and parameter gradient
g = d_theta b (`drift_pair`, `grad_pair`), which coordinates carry noise
(`noisy`), its residual weighting mode, and its sizes and parameter names.
The drift of particle i in an N-particle system is the empirical-measure
average

    B_i(theta, x) = (1/N) sum_j b(theta, x_i, x_j),

with the self term j = i included.

The mean-field forms (`drift_mean`, `grad_mean`, `drift_ensemble`) follow
from the pair drift:

- linear, double-well, vol32 and FitzHugh-Nagumo have a b that is affine in
  y, so the average is b evaluated at the empirical mean (`MeanPositionModel`);
- Kuramoto writes the average of sin(x - x_j) in closed form from the mean
  cosine and sine;
- Cucker-Smale averages the pair drift over the ensemble, O(N) per particle;
  its `drift_ensemble` evaluates the (N, N) pair terms in chunks, so its
  working set does not grow with R or N.  One worker thread per CPU of the
  process's affinity mask claims the chunks on demand, and the workers split
  one PAIR_BLOCK_BYTES (512 KiB) budget per scratch buffer rather than each
  taking one.  No result depends on the worker count.

All evaluators broadcast over leading batch axes: theta has shape (..., p),
states have shape (..., d), and ensembles have shape (..., N, d).

The closed-form mean-field evaluators read one ensemble statistic,
`mean_field(positions)`; a caller that evaluates several of them on the same
ensemble computes it once and passes it as `stat`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

# Scratch budget of one chunk of the Cucker-Smale pair kernel: two such
# buffers bound its per-step working set, whatever R and N.  The workers
# split it; they do not each get one.  Two workers get blocks of 256 KiB
# each (65 rows at N = 500): fewer, larger chunks leave them fewer Python
# steps between the numpy calls, which is where they queue on the GIL.
PAIR_BLOCK_BYTES = 512 * 1024

# Threads that share out the chunks of the Cucker-Smale pair kernel: one per
# CPU the process may run on.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


class _SharePool:
    """Daemon threads that run the shares of a chunked kernel call.

    Threads start on the first call with several shares and then idle
    between calls.  A call returns only when all of its shares are done, so
    an idle daemon never holds up interpreter exit.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tasks = None
        self._threads = 0

    def run(self, work, shares):
        """work(share) for every share: the first on the calling thread, each
        other one on a pool thread in a copy of the caller's context, so that
        the caller's np.errstate holds there too.  Returns when every share is
        done and raises the first error.
        """
        if len(shares) == 1:
            work(shares[0])
            return
        import queue  # here, not at module import: single-share runs never need it

        with self._lock:
            if self._tasks is None:
                self._tasks = queue.SimpleQueue()
            for _ in range(self._threads, len(shares) - 1):
                threading.Thread(target=self._serve, daemon=True).start()
                self._threads += 1
        done = queue.SimpleQueue()
        for share in shares[1:]:
            self._tasks.put((contextvars.copy_context(), work, share, done))
        try:
            work(shares[0])
        finally:
            errors = [done.get() for _ in shares[1:]]
        for err in errors:
            if err is not None:
                raise err

    def _serve(self):
        while True:
            self._run_task(*self._tasks.get())

    @staticmethod
    def _run_task(context, work, share, done):
        # a function of its own, so that an idle thread keeps no reference
        # to the last call's arrays
        try:
            context.run(work, share)
        except BaseException as err:  # raised again by the caller
            done.put(err)
        else:
            done.put(None)


_POOL = _SharePool()
# A forked child has none of the parent's threads: it starts its own pool.
os.register_at_fork(after_in_child=_POOL.__init__)


# ---------------------------------------------------------------------------
# Admissible parameter sets


@dataclass(frozen=True)
class Box:
    """Per-coordinate closed interval bounds, possibly infinite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Elementwise-all membership over the last axis."""
        v = np.asarray(values)
        return ((v >= self.lower) & (v <= self.upper)).all(axis=-1)


# ---------------------------------------------------------------------------
# Truth schedules


@dataclass(frozen=True)
class TruthSchedule:
    """Time-varying true parameter: constant, changepoint, or linear ramp.

    The changepoint is right-continuous (theta_end applies from switch_time
    on); the ramp interpolates affinely and clamps at the horizon.
    """

    kind: str
    start: np.ndarray
    end: np.ndarray | None = None
    switch_time: float | None = None
    horizon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        if self.end is not None:
            object.__setattr__(self, "end", np.asarray(self.end, dtype=float))

    def at(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.start
        if self.kind == "changepoint":
            return self.end if t >= self.switch_time else self.start
        frac = min(max(t / self.horizon, 0.0), 1.0)
        return self.start + (self.end - self.start) * frac

    @classmethod
    def constant(cls, values) -> "TruthSchedule":
        return cls("constant", np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Diffusion specifications


@dataclass(frozen=True)
class ConstantDiffusion:
    """Constant matrix diffusion; noiseless coordinates have zero rows."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "sigma", s)

    def apply(self, positions, dw):
        return dw @ self.sigma.T


@dataclass(frozen=True)
class PowerStateDiffusion:
    """Scalar state-dependent diffusion sigma(eta, x) = eta * |x|**exponent.

    Only defined for d = 1.  `eta` is the true parameter that drives the
    simulation; sigma_sq and its eta-derivative, evaluated at an estimate,
    feed the quadratic-variation matching update for the diffusion parameter.
    """

    eta: float
    exponent: float = 1.5

    def apply(self, positions, dw):
        return self.eta * np.abs(positions) ** self.exponent * dw

    def sigma_sq(self, eta, x):
        return eta**2 * np.abs(x) ** (2 * self.exponent)

    def d_eta_sigma_sq(self, eta, x):
        return 2.0 * eta * np.abs(x) ** (2 * self.exponent)


# ---------------------------------------------------------------------------
# Model base


def _particle_mean(a):
    """Mean over the particle axis -2: np.mean's own sum and division, bit
    for bit, without its wrapper's per-call cost."""
    return np.add.reduce(a, axis=-2) / a.shape[-2]


def _col(theta, k):
    """Coefficient k of the array theta, keeping a trailing axis for state
    broadcast."""
    return theta[..., k, None]


def _rows(x, y, *rows):
    """Stack the (..., d) rows along a new axis -2 at the broadcast shape of
    the arrays x and y (np.stack of the broadcast rows, without the
    intermediates)."""
    shape = x.shape
    if y.shape != shape:
        shape = np.broadcast_shapes(shape, y.shape)
    out = np.empty(shape[:-1] + (len(rows), shape[-1]))
    for k, row in enumerate(rows):
        out[..., k, :] = row
    return out


class InteractionModel:
    """Base class: a model declared by its pair drift.

    A subclass sets `model_id`, the sizes `p` and `d`, `param_names`, its
    `weighting`, and `noisy`, the coordinates driven by noise, and defines
    drift_pair / grad_pair.  The constructor builds the constant diffusion
    diag(sigma on the noisy coordinates, 0 elsewhere).  A model with
    diffusion parameters declares `eta_names` and `eta_bounds` and builds its
    diffusion from the true eta instead.

    The mean-field forms here average the pair drift over the ensemble, O(N)
    per particle; Cucker-Smale uses them as they are.  Subclasses whose
    average has a closed form override them and `mean_field`.  Each model of
    the zoo also has `drift_ensemble`, the drift of every particle at once,
    which the simulator calls.
    """

    model_id: str = ""
    p: int = 0
    d: int = 0
    param_names: tuple = ()
    weighting: str = "inverse-diffusion"  # or "identity"
    noisy: tuple = (True,)
    eta_bounds: Box | None = None
    eta_names: tuple = ()

    def __init__(self, sigma=1.0):
        self.diffusion = ConstantDiffusion(np.diag(np.where(self.noisy, float(sigma), 0.0)))

    # -- pairwise ----------------------------------------------------------

    def drift_pair(self, theta, x, y):
        raise NotImplementedError

    def grad_pair(self, theta, x, y):
        raise NotImplementedError

    # -- empirical-measure forms -------------------------------------------

    def mean_field(self, positions):
        """The ensemble statistic the closed forms below share, or None.

        The generic evaluators work from the positions directly, so the base
        model has none; `stat` arguments are then ignored.
        """
        return None

    def _stat(self, positions, stat):
        return self.mean_field(positions) if stat is None else stat

    def drift_mean(self, theta, x, positions, stat=None):
        """B(theta, x, mu_N): pair drift averaged over the ensemble."""
        t = np.asarray(theta)[..., None, :]
        xe = np.asarray(x)[..., None, :]
        return self.drift_pair(t, xe, positions).mean(axis=-2)

    def grad_mean(self, theta, x, positions, stat=None):
        """G(theta, x, mu_N) = d_theta B, shape (..., p, d)."""
        t = np.asarray(theta)[..., None, :]
        xe = np.asarray(x)[..., None, :]
        return self.grad_pair(t, xe, positions).mean(axis=-3)


class MeanPositionModel(InteractionModel):
    """A pair drift affine in y, so B(theta, x, mu_N) = b(theta, x, mean_j x_j).

    Every mean-field form is the pair drift or gradient evaluated at the
    empirical mean, which `mean_field` supplies.
    """

    def mean_field(self, positions):
        return _particle_mean(positions)

    def drift_mean(self, theta, x, positions, stat=None):
        return self.drift_pair(theta, x, self.mean_field(positions) if stat is None else stat)

    def grad_mean(self, theta, x, positions, stat=None):
        return self.grad_pair(theta, x, self.mean_field(positions) if stat is None else stat)

    def drift_ensemble(self, theta, positions, stat=None):
        """Mean-field drift of every particle, shape (..., N, d).

        theta is a plain (p,) vector here: the simulator always advances the
        whole ensemble under one parameter value.
        """
        return self.drift_pair(theta, positions, self._stat(positions, stat)[..., None, :])


def weight_matrix(model: InteractionModel, mode: str | None = None) -> np.ndarray:
    """Residual weighting: (sigma sigma^T)^-1, or the identity.

    `mode` overrides the model's default weighting.  The inverse-weighted
    models have noise on every coordinate; the degenerate-noise models are
    identity-weighted and never touch the inverse.
    """
    if (mode or model.weighting) == "identity":
        return np.eye(model.d)
    sigma = model.diffusion.sigma
    return np.linalg.inv(sigma @ sigma.T)


# ---------------------------------------------------------------------------
# The zoo


class LinearModel(MeanPositionModel):
    """b(theta, x, y) = -theta1*x - theta2*(x - y), d = 1."""

    model_id = "linear"
    p, d = 2, 1
    param_names = ("theta1", "theta2")

    def drift_pair(self, theta, x, y):
        return -_col(theta, 0) * x - _col(theta, 1) * (x - y)

    def grad_pair(self, theta, x, y):
        return _rows(x, y, -x, -(x - y))


class DoubleWellModel(MeanPositionModel):
    """b = -(theta1*x^3 - theta2*x) - theta3*(x - y), d = 1.

    Bistable confinement with quadratic interaction; the mean-field limit
    has a phase transition near sigma ~ 1.9 for the default truth.
    """

    model_id = "double-well"
    p, d = 3, 1
    param_names = ("theta1", "theta2", "theta3")

    def drift_pair(self, theta, x, y):
        return -(_col(theta, 0) * x**3 - _col(theta, 1) * x) - _col(theta, 2) * (x - y)

    def grad_pair(self, theta, x, y):
        return _rows(x, y, -(x**3), x, -(x - y))


class FitzHughNagumoModel(MeanPositionModel):
    """Coupled neurons: state (v, w) = (voltage, recovery), noise on v only.

        dv = [theta1*(v - v^3/3 - w) - theta2*(v - v_j)] dt + sigma dW
        dw = [v + theta3 - theta4*w] dt

    Degenerate noise, so residuals are identity-weighted.
    """

    model_id = "fitzhugh-nagumo"
    p, d = 4, 2
    param_names = ("theta1", "theta2", "theta3", "theta4")
    weighting = "identity"
    noisy = (True, False)

    def drift_pair(self, theta, x, y):
        v, w = x[..., 0], x[..., 1]
        vj = y[..., 0]
        b1 = (
            np.asarray(theta)[..., 0] * (v - v**3 / 3.0 - w)
            - np.asarray(theta)[..., 1] * (v - vj)
        )
        b2 = v + np.asarray(theta)[..., 2] - np.asarray(theta)[..., 3] * w
        return np.stack([b1, b2], axis=-1)

    def grad_pair(self, theta, x, y):
        v, w = x[..., 0], x[..., 1]
        vj = y[..., 0]
        out = np.zeros(np.broadcast_shapes(v.shape, vj.shape) + (4, 2))
        out[..., 0, 0] = v - v**3 / 3.0 - w
        out[..., 1, 0] = -(v - vj)
        out[..., 2, 1] = 1.0
        out[..., 3, 1] = -w
        return out

    def mean_field(self, positions):
        """Mean voltage, shape (..., 1): only the v coordinate interacts."""
        return _particle_mean(positions[..., :1])


class KuramotoModel(InteractionModel):
    """Coupled phase oscillators: b = -theta * sin(x - y), d = 1.

    Phases evolve unwrapped on the real line; sin handles the periodicity.
    Critical coupling is sigma^2 for the mean-field limit.
    """

    model_id = "kuramoto"
    p, d = 1, 1
    param_names = ("theta1",)

    def drift_pair(self, theta, x, y):
        return -_col(theta, 0) * np.sin(x - y)

    def grad_pair(self, theta, x, y):
        s = np.sin(x - y)
        return -s[..., None, :]

    def mean_field(self, positions):
        """(mean cos x_j, mean sin x_j), each (..., d), then cos x_j and
        sin x_j, each (..., N, d), so that a step takes them once."""
        cos, sin = np.cos(positions), np.sin(positions)
        return _particle_mean(cos), _particle_mean(sin), cos, sin

    # mean_j sin(x - x_j) = sin(x) mean(cos x_j) - cos(x) mean(sin x_j)
    def _mean_sin(self, x, positions, stat):
        cbar, sbar = self._stat(positions, stat)[:2]
        return np.sin(x) * cbar - np.cos(x) * sbar

    def drift_mean(self, theta, x, positions, stat=None):
        return -_col(theta, 0) * self._mean_sin(x, positions, stat)

    def grad_mean(self, theta, x, positions, stat=None):
        return -self._mean_sin(x, positions, stat)[..., None, :]

    def drift_ensemble(self, theta, positions, stat=None):
        cbar, sbar, cos, sin = self._stat(positions, stat)
        return -theta[0] * (sin * cbar[..., None, :] - cos * sbar[..., None, :])


class CuckerSmaleModel(InteractionModel):
    """Flocking: state (q, v) = (position, velocity), noise on v only.

        dq = v dt
        dv = -[theta1*q + theta2 * mean_j psi(theta3, (q-q_j)^2) (v - v_j)] dt
             + sigma dW

    with communication rate psi(theta3, u) = (1 + u)^(-theta3).

    `drift_ensemble` costs O(N^2) per step per replicate, in row blocks of
    bounded memory.  Its chunks run on one thread per CPU of the process's
    affinity mask, each thread claiming the next chunk when it is done with
    its last; each thread has two scratch buffers, and all of them
    together hold at most 2 * PAIR_BLOCK_BYTES, whatever the CPU count, for
    any N whose row of pair terms fits in PAIR_BLOCK_BYTES.  The result is
    the same, bit for bit, at any worker count.
    """

    model_id = "cucker-smale"
    p, d = 3, 2
    param_names = ("theta1", "theta2", "theta3")
    weighting = "identity"
    noisy = (False, True)

    @staticmethod
    def _psi(theta3, u):
        return (1.0 + u) ** (-theta3)

    def drift_pair(self, theta, x, y):
        q, v = x[..., 0], x[..., 1]
        qj, vj = y[..., 0], y[..., 1]
        t1 = np.asarray(theta)[..., 0]
        t2 = np.asarray(theta)[..., 1]
        t3 = np.asarray(theta)[..., 2]
        u = (q - qj) ** 2
        b2 = -t1 * q - t2 * self._psi(t3, u) * (v - vj)
        b1 = np.broadcast_to(v, b2.shape)
        return np.stack([b1, b2], axis=-1)

    def grad_pair(self, theta, x, y):
        q, v = x[..., 0], x[..., 1]
        qj, vj = y[..., 0], y[..., 1]
        t2 = np.asarray(theta)[..., 1]
        t3 = np.asarray(theta)[..., 2]
        u = (q - qj) ** 2
        psi = self._psi(t3, u)
        dv = v - vj
        out = np.zeros(np.broadcast_shapes(q.shape, dv.shape, t2.shape) + (3, 2))
        out[..., 0, 1] = -q
        out[..., 1, 1] = -psi * dv
        out[..., 2, 1] = t2 * np.log1p(u) * psi * dv
        return out

    def drift_ensemble(self, theta, positions, stat=None):
        """Mean-field drift of every particle, shape (..., N, d).

        The (N, N) pair terms are evaluated in chunks: several whole
        replicates when one replicate's 8 N^2 bytes fit, otherwise a block of
        rows i of one replicate.  Each worker claims the next chunk from one
        shared counter when it is done with its last, with buffers of at most
        PAIR_BLOCK_BYTES / workers, and no more workers run than whole rows
        fit in the budget.  A chunk writes only its own rows of the result.
        A row always holds all N columns j, so each row sum adds the same
        contiguous row as the full (..., N, N) evaluation, and the one
        division by N at the end is the one a mean over j makes: the bits
        are those of the full evaluation at any worker count.
        """
        q, v = positions[..., 0], positions[..., 1]
        n = q.shape[-1]
        qs, vs = q.reshape(-1, n), v.reshape(-1, n)
        # q_i - q_j == -q_j + q_i exactly (IEEE 754, signed zeros too), and
        # the contiguous -q_j row as first operand is the faster loop
        neg_q, neg_v = -qs, -vs
        workers = max(1, min(_WORKERS, PAIR_BLOCK_BYTES // 8 // n))
        cells = PAIR_BLOCK_BYTES // 8 // workers
        reps = min(len(qs), max(1, cells // (n * n)))
        rows = min(n, max(1, cells // n))
        row_blocks = -(-n // rows)
        chunks = -(-len(qs) // reps) * row_blocks
        workers = min(workers, chunks)
        claim = itertools.count().__next__
        inter = np.empty(qs.shape)
        # every worker's two buffers in one allocation: separate ones let
        # malloc trim its heaps between calls and fault the pages in again.
        # Each buffer starts on a 64-byte cache line: where malloc happens to
        # put a misaligned one, every AVX-512 load straddles two lines and
        # the chunk takes about 15% longer.
        size = reps * rows * n
        stride = -(-size // 8) * 8
        flat = np.empty(2 * workers * stride + 7)
        start = -flat.ctypes.data % 64 // 8
        scratch = [
            flat[start + k * stride : start + k * stride + size].reshape(reps, rows, n)
            for k in range(2 * workers)
        ]

        def work(worker):
            u_buf, w_buf = scratch[2 * worker : 2 * worker + 2]
            while (c := claim()) < chunks:
                r, i = reps * (c // row_blocks), rows * (c % row_blocks)
                qi, vi = qs[r : r + reps, i : i + rows], vs[r : r + reps, i : i + rows]
                k, b = qi.shape
                u, w = u_buf[:k, :b], w_buf[:k, :b]
                # psi = _psi(theta3, (q_i - q_j)**2), computed in place
                np.add(neg_q[r : r + k, None, :], qi[..., None], out=u)
                u **= 2
                u += 1.0
                np.power(u, -theta[2], out=u)
                np.add(neg_v[r : r + k, None, :], vi[..., None], out=w)
                w *= u
                np.add.reduce(w, axis=-1, out=inter[r : r + k, i : i + b])

        _POOL.run(work, range(workers))
        inter /= n
        b2 = -theta[0] * q - theta[1] * inter.reshape(q.shape)
        return np.stack([v, b2], axis=-1)


class Vol32Model(MeanPositionModel):
    """Mean-field 3/2 volatility: b = -x*(theta1*|x| - theta2) - theta3*(x - y),
    diffusion sigma(eta, x) = eta * |x|^(3/2), d = 1.

    The model is built with its true eta; the diffusion estimator learns eta
    separately from realized quadratic variation.  Drift residuals are
    identity-weighted.
    """

    model_id = "vol32"
    p, d = 3, 1
    param_names = ("theta1", "theta2", "theta3")
    eta_names = ("eta1",)
    eta_bounds = Box(np.array([0.0]), np.array([np.inf]))
    weighting = "identity"

    def __init__(self, eta):
        self.diffusion = PowerStateDiffusion(eta, exponent=1.5)

    def drift_pair(self, theta, x, y):
        return -x * (_col(theta, 0) * np.abs(x) - _col(theta, 1)) - _col(theta, 2) * (x - y)

    def grad_pair(self, theta, x, y):
        return _rows(x, y, -x * np.abs(x), x, -(x - y))


MODEL_ZOO = {
    "linear": LinearModel,
    "double-well": DoubleWellModel,
    "fitzhugh-nagumo": FitzHughNagumoModel,
    "kuramoto": KuramotoModel,
    "cucker-smale": CuckerSmaleModel,
    "vol32": Vol32Model,
}


def make_model(model_id: str, **kwargs) -> InteractionModel:
    return MODEL_ZOO[model_id](**kwargs)
