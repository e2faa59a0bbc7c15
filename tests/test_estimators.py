import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipslearn.batch import EstimatorSetup, batch_seeds, run_batch
from ipslearn.estimators import (
    EstimatorState,
    LearningRateSchedule,
    RmsPropConfig,
    TripletSet,
    UpdateOptions,
    build_cyclic_triplets,
    rmsprop_precondition,
    update_averaged,
    update_diffusion,
    update_m_averaged_full,
    update_m_averaged_triplets,
    update_three_particle,
    validate_schedule,
)
from ipslearn.models import Box, TruthSchedule, make_model
from ipslearn.rng import InvalidConfiguration


def const_sched(*scale):
    return LearningRateSchedule("constant", 1.0, scale=np.array(scale, dtype=float))


# ---------------------------------------------------------------------------
# Cyclic triplets


def test_cyclic_triplets_standard():
    assert build_cyclic_triplets([2, 5, 7], 10).triplets == ((2, 5, 7), (5, 7, 2), (7, 2, 5))


def test_cyclic_triplets_full_small_system():
    assert build_cyclic_triplets([0, 1, 2], 3).triplets == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_cyclic_triplets_extend_singleton():
    # Pi = {4} is extended with the smallest free indices {0, 1}; only the
    # cyclic triple starting in Pi is kept
    ts = build_cyclic_triplets([4], 10)
    assert ts.triplets == ((4, 0, 1),)
    assert len(ts) == 1


def test_cyclic_triplets_extend_pair():
    ts = build_cyclic_triplets([4, 2], 10)
    assert len(ts) == 2
    assert all(t[0] in (4, 2) for t in ts.triplets)
    for t in ts.triplets:
        assert len(set(t)) == 3


def test_cyclic_triplets_rejects_bad_input():
    with pytest.raises(InvalidConfiguration):
        build_cyclic_triplets([1, 1, 2], 5)
    with pytest.raises(InvalidConfiguration):
        build_cyclic_triplets([0, 9], 5)
    with pytest.raises(InvalidConfiguration):
        build_cyclic_triplets([0], 2)
    with pytest.raises(InvalidConfiguration):
        build_cyclic_triplets([], 5)


def test_triplet_set_rejects_repeated_indices():
    with pytest.raises(InvalidConfiguration):
        TripletSet(((0, 1, 1),))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cyclic_triplets_properties(data):
    n = data.draw(st.integers(3, 12))
    m = data.draw(st.integers(1, n))
    pi = data.draw(st.permutations(range(n)).map(lambda p: tuple(p[:m])))
    ts = build_cyclic_triplets(pi, n)
    assert len(ts) == len(pi)
    assert tuple(t[0] for t in ts.triplets if t[0] in pi) == tuple(
        t[0] for t in ts.triplets
    )
    for t in ts.triplets:
        assert len(set(t)) == 3 and all(0 <= i < n for i in t)
    if len(pi) >= 3:
        assert tuple(t[0] for t in ts.triplets) == pi


# ---------------------------------------------------------------------------
# Single-step updates, hand-derived values


def test_update_averaged_single_particle_step():
    # N=1: empirical mean equals the particle, so the interaction column of
    # G vanishes and B(theta) = -theta1*x; with dx produced by the truth
    # drift (no noise), the residual is (theta01 - theta1)*x*dt
    m = make_model("linear", sigma=1.0)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    pos = np.array([[1.0]])
    dx = np.array([[-1.0 * 1.0 * 0.1]])  # truth theta0 = (1.0, 0.2), N=1
    sched = const_sched(8e-3, 5e-3)
    new = update_averaged(state, m, 0, pos, dx, 0.1, sched, 0.0)
    resid = (-1.5 * 0.1) - (-0.1)  # = -0.05
    assert new.theta[0] == pytest.approx(1.5 - 8e-3 * (-1.0) * resid, abs=1e-15)
    assert new.theta[0] == pytest.approx(1.4996, abs=1e-12)
    assert new.theta[1] == 0.7  # G's interaction entry is zero
    assert new.step_index == 1


def test_update_averaged_zero_rate_is_identity():
    m = make_model("linear")
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    pos = np.array([[1.0], [0.5]])
    dx = np.array([[0.2], [-0.1]])
    sched = LearningRateSchedule("constant", 1e-300)  # gamma must be positive
    new = update_averaged(state, m, 0, pos, dx, 0.1, sched, 0.0)
    assert new.theta == pytest.approx(state.theta, abs=1e-290)


def test_update_three_particle_hand_step():
    # g uses (x_i - x_j), the drift residual uses (x_i - x_k)
    m = make_model("linear", sigma=1.0)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    x_i, x_j, x_k = np.array([1.0]), np.array([0.0]), np.array([2.0])
    dx_i = np.array([-0.1])
    sched = const_sched(8e-3, 5e-3)
    new = update_three_particle(state, m, x_i, x_j, x_k, dx_i, 0.1, sched, 0.0)
    b = -1.5 * 1.0 - 0.7 * (1.0 - 2.0)  # = -0.8
    resid = b * 0.1 - (-0.1)  # = 0.02
    g = np.array([-1.0, -(1.0 - 0.0)])
    want = state.theta - np.array([8e-3, 5e-3]) * g * resid
    assert new.theta == pytest.approx(want, abs=1e-15)


def test_m_triplet_with_single_triple_reduces_exactly():
    m = make_model("linear")
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((10, 1))
    dx = rng.standard_normal((10, 1)) * 0.1
    sched = const_sched(8e-3, 5e-3)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    ts = build_cyclic_triplets([4], 10)
    via_m = update_m_averaged_triplets(state, m, ts, pos, dx, 0.1, sched, 0.0)
    i, j, k = ts.triplets[0]
    direct = update_three_particle(
        state, m, pos[i], pos[j], pos[k], dx[i], 0.1, sched, 0.0
    )
    assert np.array_equal(via_m.theta, direct.theta)


def test_m_full_equals_mean_of_per_particle_updates():
    m = make_model("linear")
    rng = np.random.default_rng(5)
    pos = rng.standard_normal((3, 1))
    dx = rng.standard_normal((3, 1)) * 0.1
    sched = const_sched(8e-3, 5e-3)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    via_m = update_m_averaged_full(state, m, (0, 1, 2), pos, dx, 0.1, sched, 0.0)
    singles = [
        update_averaged(state, m, i, pos, dx, 0.1, sched, 0.0).theta for i in range(3)
    ]
    assert via_m.theta == pytest.approx(np.mean(singles, axis=0), abs=1e-14)


def test_m_full_invariant_under_pi_permutation():
    m = make_model("linear")
    rng = np.random.default_rng(6)
    pos = rng.standard_normal((8, 1))
    dx = rng.standard_normal((8, 1)) * 0.1
    sched = const_sched(8e-3, 5e-3)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    a = update_m_averaged_full(state, m, (5, 1, 7), pos, dx, 0.1, sched, 0.0)
    b = update_m_averaged_full(state, m, (7, 5, 1), pos, dx, 0.1, sched, 0.0)
    assert np.array_equal(a.theta, b.theta)


def test_update_diffusion_fixed_point_and_hand_step():
    m = make_model("vol32")
    sched = LearningRateSchedule("constant", 0.01)
    pos = np.array([[1.0]])
    # exact fixed point: dQV = eta^2 |x|^3 dt
    state = EstimatorState(theta=np.array([0.7]))
    dqv = np.array([[[0.7**2 * 0.1]]])
    new = update_diffusion(state, m, 0, pos, dqv, 0.1, sched, 0.0)
    assert new.theta == pytest.approx([0.7], abs=0)
    # hand step: update = delta * (2 eta |x|^3) * (dQV - eta^2 |x|^3 dt)
    dqv = np.array([[[0.08]]])
    new = update_diffusion(state, m, 0, pos, dqv, 0.1, sched, 0.0)
    assert new.theta == pytest.approx([0.7 + 0.01 * 1.4 * (0.08 - 0.049)], abs=1e-15)
    assert new.theta == pytest.approx([0.700434], abs=1e-12)


def test_update_diffusion_requires_parametric_model():
    m = make_model("linear")
    state = EstimatorState(theta=np.array([1.0]))
    with pytest.raises(InvalidConfiguration):
        update_diffusion(state, m, 0, np.zeros((1, 1)), np.zeros((1, 1, 1)), 0.1,
                         LearningRateSchedule("constant", 0.01), 0.0)


def test_free_mask_pins_known_parameters():
    m = make_model("double-well")
    state = EstimatorState(theta=np.array([0.5, 3.0, 2.0]))
    opts = UpdateOptions(free_mask=np.array([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(0)
    pos = rng.standard_normal((5, 1))
    dx = rng.standard_normal((5, 1)) * 0.3
    new = update_averaged(state, m, 0, pos, dx, 0.1, const_sched(0.1, 0.1, 0.1), 0.0, opts)
    assert new.theta[2] == 2.0
    assert new.theta[0] != 0.5 and new.theta[1] != 3.0


def test_update_rules_copy_unless_in_place():
    m = make_model("linear")
    rng = np.random.default_rng(3)
    pos = rng.standard_normal((2, 5, 1))
    dx = rng.standard_normal((2, 5, 1)) * 0.3
    state = EstimatorState(theta=np.array([[1.5, 0.7], [2.0, 0.5]]))
    before = state.copy()
    new = update_averaged(state, m, 0, pos, dx, 0.1, const_sched(0.1, 0.1), 0.0)
    assert new is not state and new.step_index == 1
    assert np.array_equal(state.theta, before.theta) and state.step_index == 0
    same = update_averaged(state, m, 0, pos, dx, 0.1, const_sched(0.1, 0.1), 0.0,
                           in_place=True)
    assert same is state and state.step_index == 1
    assert np.array_equal(state.theta, new.theta)


def test_keep_mask_leaves_a_replicate_untouched():
    # replicates 0 and 3 start outside the box and would freeze, 1 and 2
    # would move; 1 and 3 are kept
    m = make_model("linear")
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((4, 5, 1))
    dx = rng.standard_normal((4, 5, 1)) * 0.3
    box = Box(np.array([0.0, 0.0]), np.array([1.6, 1.0]))
    opts = UpdateOptions(bounds=box, rmsprop=RmsPropConfig(0.9, 1e-8))
    state = EstimatorState(theta=np.array([[5.0, 0.7], [1.5, 0.7], [1.5, 0.7], [5.0, 0.7]]))
    keep = np.array([False, True, False, True])
    sched = const_sched(0.01, 0.01)
    free = update_averaged(state, m, 0, pos, dx, 0.1, sched, 0.0, opts)
    assert free.frozen.tolist() == [True, False, False, True]
    assert not np.array_equal(free.theta[1], state.theta[1])
    kept = update_averaged(state, m, 0, pos, dx, 0.1, sched, 0.0, opts, keep=keep)
    for field in ("theta", "precond_acc", "frozen"):
        got, want = getattr(kept, field), getattr(free, field)
        assert np.array_equal(got[~keep], want[~keep])
        assert np.array_equal(got[keep], getattr(state, field)[keep])


def test_constant_schedule_vector_is_computed_once():
    sched = const_sched(0.008, 0.005)
    v = sched.vector(0.0)
    assert sched.vector(123.0) is v and not v.flags.writeable
    assert np.array_equal(v, sched.value(5.0))
    power = LearningRateSchedule("power-law", 0.5, beta=0.7)
    assert power.vector(3.0) == pytest.approx([0.5 * 4.0**-0.7])


# ---------------------------------------------------------------------------
# Constraints and freezing


def test_boundary_freeze_is_absorbing():
    m = make_model("linear")
    box = Box(np.array([0.0, 0.0]), np.array([np.inf, np.inf]))
    opts = UpdateOptions(bounds=box)
    # a large step pushes theta2 negative -> update rejected, frozen forever
    state = EstimatorState(theta=np.array([0.5, 1e-9]))
    sched = const_sched(5.0, 5.0)
    rng = np.random.default_rng(1)
    frozen_at = None
    for step in range(1000):
        pos = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1))
        state = update_averaged(state, m, 0, pos, dx, 0.1, sched, step * 0.1, opts)
        if frozen_at is None and bool(state.frozen):
            frozen_at = state.theta.copy()
    assert frozen_at is not None
    assert np.array_equal(state.theta, frozen_at)


def test_non_finite_gradient_freezes_an_unbatched_state():
    # one rule for every state shape: the estimate stops at its last value,
    # as one replicate of a batch does
    m = make_model("linear")
    pos = np.array([[1.0], [0.5]])
    bad_dx = np.array([[np.inf], [0.0]])
    good_dx = np.array([[0.2], [-0.1]])
    sched = const_sched(0.01, 0.01)
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    state = update_averaged(state, m, 0, pos, bad_dx, 0.1, sched, 0.0)
    assert state.frozen.shape == () and bool(state.frozen)
    assert state.theta.tolist() == [1.5, 0.7] and state.step_index == 1
    state = update_averaged(state, m, 0, pos, good_dx, 0.1, sched, 0.1)
    assert state.theta.tolist() == [1.5, 0.7] and bool(state.frozen)
    alone = update_averaged(
        EstimatorState(theta=np.array([1.5, 0.7])), m, 0, pos, good_dx, 0.1, sched, 0.0
    )
    batch = update_averaged(
        EstimatorState(theta=np.array([[1.5, 0.7], [1.5, 0.7]])),
        m, 0, np.stack([pos, pos]), np.stack([bad_dx, good_dx]), 0.1, sched, 0.0,
    )
    assert batch.frozen.tolist() == [True, False]
    assert batch.theta[0].tolist() == [1.5, 0.7]
    assert np.array_equal(batch.theta[1], alone.theta) and not bool(alone.frozen)
    assert alone.theta.tolist() != [1.5, 0.7]


def test_unbounded_never_freezes():
    m = make_model("linear")
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    rng = np.random.default_rng(2)
    sched = const_sched(0.01, 0.01)
    for step in range(200):
        pos = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1)) * 0.3
        state = update_averaged(state, m, 0, pos, dx, 0.1, sched, step * 0.1)
    assert not bool(state.frozen)
    assert np.all(np.isfinite(state.theta))


# ---------------------------------------------------------------------------
# RMSProp


def test_rmsprop_first_step_algebra():
    cfg = RmsPropConfig(rho=0.99, eps=1e-8)
    state = EstimatorState(theta=np.zeros(2))
    lr = np.array([1e-2, 1e-2])
    raw = np.array([0.03, -0.05])
    step, acc = rmsprop_precondition(raw, state, lr, cfg)
    grad = raw / lr
    want = raw / (np.sqrt(0.01 * grad**2) + 1e-8)
    assert step == pytest.approx(want, rel=1e-12)
    assert acc == pytest.approx(0.01 * grad**2, rel=1e-12)


def test_rmsprop_zero_gradient_stays_bounded():
    cfg = RmsPropConfig()
    state = EstimatorState(theta=np.zeros(1))
    lr = np.array([1e-2])
    raw = np.zeros(1)
    for _ in range(100):
        step, acc = rmsprop_precondition(raw, state, lr, cfg)
        state = EstimatorState(theta=state.theta, precond_acc=acc)
        assert np.all(np.isfinite(step))
        assert step == pytest.approx([0.0])


def test_rmsprop_constant_gradient_limit():
    # the accumulator converges geometrically to grad^2, so the step tends
    # to raw / (|grad| + eps)
    cfg = RmsPropConfig(rho=0.99, eps=1e-8)
    state = EstimatorState(theta=np.zeros(1))
    lr = np.array([2e-3])
    raw = np.array([-4e-3])
    for _ in range(2500):
        step, acc = rmsprop_precondition(raw, state, lr, cfg)
        state = EstimatorState(theta=state.theta, precond_acc=acc)
    grad = raw / lr
    assert step == pytest.approx(raw / (np.abs(grad) + cfg.eps), rel=1e-6)


# ---------------------------------------------------------------------------
# Schedules


def test_power_law_values():
    s = LearningRateSchedule("power-law", 1.0, beta=0.75)
    assert s.value(0.0) == pytest.approx(1.0)
    assert s.value(15.0) == pytest.approx(0.125, abs=0)


def test_schedule_reports():
    assert validate_schedule(LearningRateSchedule("constant", 8e-3)).mode == "tracking"
    ok = validate_schedule(LearningRateSchedule("power-law", 1.0, beta=0.75))
    assert ok.robbins_monro_ok and ok.rate_conditions_ok
    edge = validate_schedule(LearningRateSchedule("power-law", 1.0, beta=1.0))
    assert edge.robbins_monro_ok and not edge.rate_conditions_ok
    bad = validate_schedule(LearningRateSchedule("power-law", 1.0, beta=0.4))
    assert not bad.robbins_monro_ok


def test_schedule_validation_errors():
    with pytest.raises(InvalidConfiguration):
        LearningRateSchedule("constant", 0.0)
    with pytest.raises(InvalidConfiguration):
        LearningRateSchedule("power-law", 1.0, beta=1.5)
    with pytest.raises(InvalidConfiguration):
        LearningRateSchedule("constant", 1.0, scale=np.array([1.0, -1.0]))


def test_schedule_nonincreasing_property():
    s = LearningRateSchedule("power-law", 0.7, beta=0.6, scale=np.array([2.0, 0.5]))
    ts = np.linspace(0, 100, 50)
    vals = np.array([s.value(t) for t in ts])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals, axis=0) <= 0)


# ---------------------------------------------------------------------------
# Statistical behaviour


def test_truth_pinned_averaged_update_is_centred():
    # at the true parameter the update is a martingale increment sequence;
    # its time average should be within 3 standard errors of zero
    from ipslearn.diagnostics import truth_stationarity

    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    mean, se, z = truth_stationarity(
        m, truth, 20, 0.1, 20000, 33, const_sched(8e-3, 5e-3)
    )
    assert np.all(np.abs(z) <= 3.0)


def test_triplet_finite_n_bias_shrinks_with_n():
    # pin theta at the truth and time-average the raw triplet gradient: its
    # mean is the finite-N gap between the pair and mean-field drifts, and
    # the confinement component shrinks roughly like 1/(N-1)
    from ipslearn.estimators import triplet_gradient
    from ipslearn.models import weight_matrix
    from ipslearn.sde import PositionHistory, run_trajectory

    m = make_model("linear")
    theta0 = np.array([1.0, 0.2])
    truth = TruthSchedule.constant(theta0)
    W = weight_matrix(m)
    drifts = {}
    for n in (3, 50):
        sums, count = np.zeros(2), 0
        for s in batch_seeds(13, 3):
            steps = 100000
            hist = PositionHistory(steps, n, 1)
            run_trajectory(m, truth, n, 0.1, steps, seed=s, observers=[hist])
            P = hist.positions
            dX = P[1:] - P[:-1]
            D = triplet_gradient(
                m, theta0, P[:-1, 0], P[:-1, 1], P[:-1, 2], dX[:, 0], 0.1, W
            )
            sums += D.sum(axis=0)
            count += D.shape[0]
        drifts[n] = np.abs(sums / count)
    assert drifts[50][0] < drifts[3][0]


def test_halving_dt_changes_theta_at_first_order():
    # same Brownian path at two resolutions (coarse increments are sums of
    # fine ones): |theta_dt - theta_dt/2| should scale like dt
    from ipslearn.estimators import averaged_gradient
    from ipslearn.models import weight_matrix
    from ipslearn.sde import step_positions

    m = make_model("linear")
    theta0 = np.array([1.0, 0.2])
    W = weight_matrix(m)
    rng = np.random.default_rng(21)
    n, base_dt, n_steps = 5, 0.1, 400
    x0 = rng.standard_normal((n, 1))
    fine = rng.standard_normal((4 * n_steps, n, 1))

    def run(level):  # level 0: dt, 1: dt/2, 2: dt/4
        k = 2**level
        dt = base_dt / k
        # aggregate the finest-resolution path so all levels share one
        # Brownian path: a coarse increment is the sum of its fine pieces
        dw = fine.reshape(n_steps * k, 4 // k, n, 1).sum(axis=1) * np.sqrt(base_dt / 4)
        pos = x0.copy()
        theta = np.array([1.5, 0.7])
        for s in range(n_steps * k):
            new_pos, dx = step_positions(m, theta0, pos, dw[s], dt)
            D = averaged_gradient(m, theta, pos[0], pos, dx[0], dt, W)
            theta = theta - np.array([8e-3, 5e-3]) * D
            pos = new_pos
        return theta

    t0, t1, t2 = run(0), run(1), run(2)
    e1 = np.linalg.norm(t0 - t1)
    e2 = np.linalg.norm(t1 - t2)
    c_fit = e1 / base_dt
    assert e2 <= 1.5 * c_fit * (base_dt / 2)


def test_single_parameter_estimation_converges():
    # with one parameter pinned at the truth there is no flat direction and
    # both estimators land near the target in every replicate
    from ipslearn.batch import draw_initial_thetas

    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    seeds = batch_seeds(20260811, 5)
    free = np.array([False, True])
    thetas, _ = draw_initial_thetas(seeds, [1.0, 0.5], [1.0, 1.0])
    sched = const_sched(8e-3, 5e-3)
    setups = [
        EstimatorSetup(kind="averaged", schedule=sched, theta_init=thetas, free_mask=free),
        EstimatorSetup(kind="triplet", schedule=sched, theta_init=thetas, free_mask=free),
    ]
    res = run_batch(m, truth, 50, 0.1, 10000, seeds, setups)
    for tr in res.tracks:
        assert np.all(np.abs(tr.tail_mean[:, 1] - 0.2) <= 0.15)
        assert np.all(tr.tail_mean[:, 0] == 1.0)


def test_joint_estimation_recovers_identifiable_sum():
    # the parameter sum is the identifiable combination of the linear model
    # at large N; it converges even when the split along the flat direction
    # is still relaxing
    from ipslearn.batch import draw_initial_thetas

    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    seeds = batch_seeds(20260811, 5)
    thetas, _ = draw_initial_thetas(seeds, [1.5, 0.5], [2.5, 1.0])
    sched = const_sched(8e-3, 5e-3)
    setups = [EstimatorSetup(kind="averaged", schedule=sched, theta_init=thetas)]
    res = run_batch(m, truth, 50, 0.1, 10000, seeds, setups)
    sums = res.tracks[0].tail_mean.sum(axis=1)
    assert np.all(np.abs(sums - 1.2) <= 0.15)


def test_batch_matches_single_trajectory_observer():
    # the batch's estimator dispatch at R = 1 against the functional update
    # rule driven by a single trajectory's own observer
    from ipslearn.sde import run_trajectory

    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    sched = const_sched(8e-3, 5e-3)
    setup = EstimatorSetup(kind="averaged", schedule=sched, theta_init=np.array([2.0, 0.75]))

    class Averaged:
        state = EstimatorState(theta=np.array([2.0, 0.75]))

        def on_step(self, step, t, positions, dx, stat, keep):
            self.state = update_averaged(self.state, m, 0, positions[0], dx[0], 0.1, sched, t)

    obs = Averaged()
    run_trajectory(m, truth, 6, 0.1, 300, seed=77, observers=[obs])
    res = run_batch(m, truth, 6, 0.1, 300, [77], [setup])
    assert res.tracks[0].final[0] == pytest.approx(obs.state.theta, rel=1e-12)
