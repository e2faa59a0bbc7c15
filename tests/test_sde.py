import numpy as np
import pytest

from ipslearn.batch import run_batch
from ipslearn.models import TruthSchedule, make_model
from ipslearn.rng import BlockedNoise, particle_streams
from ipslearn.sde import (
    BLOWUP_THRESHOLD,
    MomentTracker,
    PositionHistory,
    SimulationBlowup,
    run_trajectory,
    simulate,
    step_positions,
)


def _noise(seed, n, d, n_steps, dt=0.1):
    return BlockedNoise(particle_streams(seed, n), d, dt, n_steps)


class Steps:
    """Observer keeping a copy of everything the engine hands it."""

    def __init__(self):
        self.seen = []

    def on_step(self, step, t, positions, dx, stat, keep):
        self.seen.append((step, t, positions.copy(), dx.copy(), keep))


def test_single_particle_linear_step_is_exact(start_at):
    # sigma = 0 removes the noise; with N = 1 the interaction term vanishes
    # (self term only), so x' = x - theta1*x*dt
    m = make_model("linear", sigma=0.0)
    obs = Steps()
    start_at(2.0)
    final = run_trajectory(m, TruthSchedule.constant([1.0, 0.2]), 1, 0.1, 1, seed=1,
                           observers=[obs])
    assert final[0, 0] == pytest.approx(1.8, abs=0)
    [(step, t, positions, dx, keep)] = obs.seen
    assert (step, t, keep) == (0, 0.0, None)
    assert positions.tolist() == [[[2.0]]]
    assert dx[0, 0, 0] == pytest.approx(-0.2, abs=0)


def test_kuramoto_equal_phases_pure_noise():
    # sin(0) = 0: with all phases equal the drift cancels exactly and the
    # increment is sigma*dW bitwise
    m = make_model("kuramoto", sigma=1.3)
    dw = _noise(3, 6, 1, 1).next_step()
    _, dx = step_positions(m, np.array([1.5]), np.full((6, 1), 0.42), dw, 0.1)
    assert np.array_equal(dx, 1.3 * dw)


def test_increment_reconstruction_bitwise(zoo_model):
    # the dX handed to observers must reconstruct exactly from the drift at
    # the step-start state and the stream's Brownian increments, in the same
    # arithmetic order, and the next step must start from x + dX
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(zoo_model.p) * 0.3
    obs = Steps()
    final = run_trajectory(zoo_model, TruthSchedule.constant(theta), 5, 0.1, 4, seed=8,
                           observers=[obs])
    noise = _noise(8, 5, zoo_model.d, 4)
    noise.initial_positions()
    ends = [positions for _, _, positions, _, _ in obs.seen[1:]] + [final[None]]
    for (_, _, positions, dx, _), end in zip(obs.seen, ends):
        drift = zoo_model.drift_ensemble(theta, positions)
        noise_term = zoo_model.diffusion.apply(positions, noise.next_step()[None])
        assert np.array_equal(dx, drift * 0.1 + noise_term)
        assert np.array_equal(end, positions + dx)


def test_interaction_only_drift_sums_to_zero():
    # null confinement + antisymmetric pair drift: sum_i B_i = 0
    rng = np.random.default_rng(9)
    pos = rng.standard_normal((20, 1))
    kur = make_model("kuramoto")
    total = kur.drift_ensemble(np.array([1.5]), pos).sum()
    assert abs(total) < 1e-10 * 20
    lin = make_model("linear")
    total = lin.drift_ensemble(np.array([0.0, 0.7]), pos).sum()
    assert abs(total) < 1e-10 * 20


# ---------------------------------------------------------------------------
# The engine


def test_each_replicate_equals_its_own_run(zoo_model):
    # streams are keyed by (seed, particle): a replicate's path does not
    # depend on the replicates run alongside it
    rng = np.random.default_rng(17)
    truth = TruthSchedule.constant(rng.standard_normal(zoo_model.p) * 0.3)
    seeds = (31, 32, 33)
    batch, excluded, blowup_step = simulate(zoo_model, truth, 6, 0.05, 60, seeds)
    assert not excluded.any() and np.all(blowup_step == -1)
    for r, seed in enumerate(seeds):
        alone = run_trajectory(zoo_model, truth, 6, 0.05, 60, seed)
        assert alone.tobytes() == batch[r].tobytes()


def test_excluded_replicates_keep_their_last_guarded_state():
    # vol32 with a large eta: every replicate blows up, at steps 7, 53 and 5;
    # each must report the state before its blow-up step, inside the guard
    m = make_model("vol32", eta=1.5)
    res = run_batch(m, TruthSchedule.constant([2.7, 2.3, 1.0]), 10, 0.2, 500, [1, 2, 3])
    assert res.excluded.all()
    assert res.blowup_step.tolist() == [7, 53, 5]
    assert np.abs(res.final_positions).max(axis=(1, 2)).max() <= BLOWUP_THRESHOLD


def test_excluded_replicates_stop_moving_and_observers_see_keep():
    # replicates excluded at steps 7 and 5 freeze; the third runs on with
    # zero increments for the other two
    m = make_model("vol32", eta=1.5)
    truth = TruthSchedule.constant([2.7, 2.3, 1.0])
    obs = Steps()
    final, excluded, blowup_step = simulate(m, truth, 10, 0.2, 20, (1, 3, 4), [obs])
    assert blowup_step[0] == 7 and blowup_step[1] == 5
    assert excluded.tolist() == [True, True, False]
    for step, _, positions, dx, keep in obs.seen:
        dead = blowup_step[:2] <= step
        assert (keep is None) == (not dead.any())
        if keep is not None:
            assert keep[:2].tolist() == dead.tolist() and not keep[2]
            assert np.all(dx[keep] == 0.0)
    assert np.array_equal(final[0], obs.seen[7][2][0])
    assert np.array_equal(final[1], obs.seen[5][2][1])


# ---------------------------------------------------------------------------
# Trajectories


def test_run_trajectory_deterministic():
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    recs = []
    for _ in range(2):
        rec = PositionHistory(100, 5, 1)
        run_trajectory(m, truth, 5, 0.1, 100, seed=12, observers=[rec])
        recs.append(rec.positions)
    assert recs[0].tobytes() == recs[1].tobytes()


def test_position_history_record_stride():
    # every 7th step from step 3 of 100: steps 3, 10, ..., 94, the same
    # positions a full history holds at those steps
    m = make_model("fitzhugh-nagumo")
    truth = TruthSchedule.constant([0.5, 0.3, 0.7, 1.0])
    full = PositionHistory(100, 4, 2)
    thinned = PositionHistory(100, 4, 2, start=3, record_every=7)
    run_trajectory(m, truth, 6, 0.1, 100, seed=5, observers=[full, thinned])
    assert thinned.steps.tolist() == list(range(3, 100, 7))
    assert thinned.positions.tobytes() == full.positions[3::7].tobytes()


def test_exchangeability_under_stream_permutation():
    # permuting particles together with their noise streams permutes the
    # trajectories; equality is up to rounding, since the mean-field sum
    # accumulates in a different order
    m = make_model("kuramoto")
    theta = np.array([1.5])

    def run(order):
        noise = BlockedNoise([particle_streams(6, 4)[i] for i in order], 1, 0.1, 200)
        pos = noise.initial_positions()
        for _ in range(200):
            pos, _ = step_positions(m, theta, pos, noise.next_step(), 0.1)
        return pos

    base = run(range(4))
    perm = [2, 0, 3, 1]
    assert run(perm) == pytest.approx(base[perm], abs=1e-10)
    # the plain loop above is the engine's arithmetic, bit for bit
    engine = run_trajectory(m, TruthSchedule.constant(theta), 4, 0.1, 200, seed=6)
    assert engine.tobytes() == base.tobytes()


def test_changepoint_truth_applied_at_switch_step(start_at):
    # deterministic single particle: x follows prod_k (1 - theta(t_k) dt),
    # with the larger rate kicking in exactly from step 5
    m = make_model("linear", sigma=0.0)
    truth = TruthSchedule("changepoint", [1.0, 0.0], [3.0, 0.0], switch_time=0.5)
    start_at(1.0)
    final = run_trajectory(m, truth, 1, 0.1, 10, seed=1)
    expect = 1.0
    for k in range(10):
        rate = 1.0 if k * 0.1 < 0.5 else 3.0
        expect *= 1.0 - rate * 0.1
    assert final[0, 0] == pytest.approx(expect, rel=1e-14)


def test_blowup_raises_with_step_and_flushes_observers():
    # eta far above stable range at this step size explodes quickly
    m = make_model("vol32", eta=8.0)
    truth = TruthSchedule.constant([2.7, 2.3, 1.0])
    rec = PositionHistory(2000, 5, 1)
    with pytest.raises(SimulationBlowup) as exc:
        run_trajectory(m, truth, 5, 0.5, 2000, seed=2, observers=[rec])
    step = exc.value.step
    assert 0 < step < 2000
    # partial output was delivered before the error; later steps stay NaN
    assert np.isfinite(rec.positions[:step]).all()
    assert np.isnan(rec.positions[step:]).all()


# ---------------------------------------------------------------------------
# Moment tracker


def test_moments_decrease_for_deterministic_contraction():
    m = make_model("linear", sigma=0.0)
    truth = TruthSchedule.constant([1.0, 0.2])
    tracker = MomentTracker(100)
    run_trajectory(m, truth, 10, 0.1, 100, seed=8, observers=[tracker])
    for order in (2, 4):
        s = tracker.series[order]
        assert np.all(np.diff(s) < 0)
    assert not tracker.growth_detected()


def test_growth_flag_trips_on_expanding_dynamics():
    # negative confinement pushes particles out; the tracker must flag the
    # moment growth well before the hard blowup guard
    m = make_model("linear", sigma=0.1)
    truth = TruthSchedule.constant([-0.5, 0.0])
    tracker = MomentTracker(200)
    run_trajectory(m, truth, 10, 0.1, 200, seed=8, observers=[tracker])
    assert tracker.growth_detected()
    assert tracker.series[2][-1] > tracker.series[2][0]
