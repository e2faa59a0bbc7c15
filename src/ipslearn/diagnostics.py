"""The computations behind `sweep` and `diagnose`: error sweeps over the
particle count, synchronous-coupling distances and rescaled-error moment
summaries.

The sweep and the CLT check run batches of the estimator setups they are
given (a config's `estimators`, complete as `config` resolves them) and
reduce the batch's (R, p) arrays directly; the sweep returns the
`sweep.csv` columns, its sizes run in forked worker processes when it is
large enough.  An estimator is scored against its setup's `truth`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .batch import EstimatorSetup, batch_seeds, run_batch
from .models import InteractionModel, TruthSchedule
from .sde import PositionHistory, run_trajectory

# fewest non-excluded replicates whose moments the CLT check reports
CLT_MIN_REPLICATES = 200
# A sweep's sizes run in forked workers only when its batch steps (n_steps
# per size, summed over the sizes) exceed this.  A fork, pickling one size's
# rows and the wait cost about 2 ms; a batch step takes at least about 45 us
# (linear, N = 3, R = 2, two estimators).  At 2 CPUs the worker's half of
# 200 steps takes about twice what its fork costs.  The one-step set-up run
# and a 3-step sweep of five sizes stay inline.
SWEEP_MIN_FORK_STEPS = 200


# ---------------------------------------------------------------------------
# L2-error sweep over the particle count


def squared_errors(track, n_steps: int, dt: float, ok, where: str = "") -> np.ndarray:
    """(tail_mean - truth at the last step)^2 of a batch track, (R, p), with
    the truth its setup is scored against.

    An estimator has diverged when this is non-finite on a replicate the
    blow-up guard did not exclude (`ok`): that raises RuntimeError naming
    the estimator and the first such replicate, plus `where`.
    """
    target = track.setup.truth.at((n_steps - 1) * dt)
    with np.errstate(over="ignore"):  # an overflow is the divergence reported below
        err = (track.tail_mean - target) ** 2
    bad = ok & ~np.isfinite(err).all(axis=1)
    if bad.any():
        raise RuntimeError(f"estimator {track.setup.label!r} diverged{where}: replicate "
                           f"{int(np.argmax(bad))} has a non-finite squared error "
                           "against the truth")
    return err


def l2_error_sweep(
    model: InteractionModel,
    truth: TruthSchedule,
    n_list,
    dt: float,
    n_steps: int,
    replicates: int,
    setups,
    base_seed: int,
    tail_fraction: float = 0.1,
) -> list:
    """Per-parameter squared error of the tail-window estimate vs its
    setup's truth at the last step, the value `summary.csv` scores against.

    Runs the estimator `setups` at every particle count in `n_list` and
    returns six columns, one row per (N, estimator, parameter): N, the
    estimator label, the parameter index, the mean squared error, its
    standard error and the count of excluded replicates.  Replicates that
    blow up are counted and excluded from the statistics, never silently
    dropped; an estimator that diverges on any other fails the sweep.

    Each N (its batch and its rows) is one unit of work.  Above
    SWEEP_MIN_FORK_STEPS batch steps the units are shared among this
    process and forked workers (`workers.map_claimed`), the largest N
    claimed first; the rows are joined in `n_list` order, and a failure is
    that of the first failing N in `n_list`, as inline.
    """
    seeds = batch_seeds(base_seed, replicates)

    def rows(n):
        result = run_batch(
            model, truth, n, dt, n_steps, seeds, setups, tail_fraction=tail_fraction
        )
        ok = ~result.excluded
        if not np.any(ok):
            raise RuntimeError(f"all replicates blew up at N={n}")
        blocks = []
        for track in result.tracks:
            err = squared_errors(track, n_steps, dt, ok, f" at N={n}")[ok]
            p = err.shape[1]
            blocks.append([
                np.full(p, n), np.full(p, track.setup.label), np.arange(p), err.mean(axis=0),
                err.std(axis=0, ddof=1) / np.sqrt(err.shape[0]),
                np.full(p, int(result.excluded.sum())),
            ])
        return blocks

    units = workers.map_claimed(
        rows, n_list, sorted(range(len(n_list)), key=lambda i: -n_list[i]),
        lambda n: f"N={n}", fork=n_steps * len(n_list) > SWEEP_MIN_FORK_STEPS,
    )
    blocks = [block for unit in units for block in unit]
    return [np.concatenate([b[k] for b in blocks]) for k in range(6)]


# ---------------------------------------------------------------------------
# Synchronous-coupling distance


def coupling_distance(
    model: InteractionModel,
    truth: TruthSchedule,
    n_small,
    n_big: int,
    dt: float,
    n_steps: int,
    seed: int,
):
    """Mean squared distance between matched particles of two system sizes.

    Every system runs from the same seed, so particle i of each is driven by
    the same stream (seed, i): the matched particles share their initial
    conditions and noise (synchronous coupling), and the larger system
    stands in for the mean-field limit.  The `n_big` system is simulated
    once and compared with a system of each size in the non-empty
    `n_small`.  Returns a (len(n_small), n_steps) array, one time series of
    the post-step distance per size.
    """
    n_keep = max(n_small)

    def matched_path(n):
        # step-start positions from step 1 on, plus the final ones: the
        # post-step state of every step
        hist = PositionHistory(n_steps, min(n, n_keep), model.d, start=1)
        final = run_trajectory(model, truth, n, dt, n_steps, seed, observers=[hist])
        return np.concatenate([hist.positions, final[None, :n_keep]])

    big = matched_path(n_big)
    return np.array([
        np.mean(np.sum((matched_path(n) - big[:, :n]) ** 2, axis=2), axis=1) for n in n_small
    ])


# ---------------------------------------------------------------------------
# Rescaled-error moments (empirical CLT check)


@dataclass(frozen=True)
class MomentSummary:
    variance: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    replicates: int


def standardized_moments(samples: np.ndarray) -> MomentSummary:
    """Variance, skewness, excess kurtosis per column of a (R, p) array."""
    from scipy import stats  # imported here: it costs about a second at CLI start-up

    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return MomentSummary(
        variance=samples.var(axis=0, ddof=1),
        skewness=stats.skew(samples, axis=0),
        excess_kurtosis=stats.kurtosis(samples, axis=0, fisher=True),
        replicates=samples.shape[0],
    )


def clt_rescaled_moments(
    model: InteractionModel,
    truth: TruthSchedule,
    n_particles: int,
    dt: float,
    n_steps: int,
    replicates: int,
    setup: EstimatorSetup,
    base_seed: int,
) -> tuple:
    """Moments of gamma_T^(-1/2) (theta_T - pooled mean) across replicates,
    and the names of the parameters they are reported for: the free ones.

    Meaningful for a power-law schedule in the rate regime (a constant
    schedule has no vanishing-step limit to rescale against) and at least
    CLT_MIN_REPLICATES replicates; `diagnose --mode clt` checks both.  The
    centering uses the pooled replicate mean since the exact finite-N
    minimiser is not available in closed form.
    """
    seeds = batch_seeds(base_seed, replicates)
    result = run_batch(model, truth, n_particles, dt, n_steps, seeds, [setup])
    ok = ~result.excluded
    if ok.sum() < CLT_MIN_REPLICATES:
        raise RuntimeError("too many excluded replicates for moment estimates")
    final = result.tracks[0].final[ok]
    gamma_T = setup.schedule.value((n_steps - 1) * dt)
    free = setup.free_mask if setup.free_mask is not None else np.ones(final.shape[1], bool)
    free = np.asarray(free, dtype=bool)
    rescaled = (final - final.mean(axis=0)) / np.sqrt(gamma_T)
    return np.asarray(setup.param_names)[free], standardized_moments(rescaled[:, free])
