import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipslearn.estimators as est
from ipslearn.batch import RULES, EstimatorSetup, batch_seeds, run_batch
from ipslearn.config import ConfigError, load_config, parse_config
from ipslearn.estimators import (
    EstimatorState,
    LearningRateSchedule,
    RmsPropConfig,
    build_cyclic_triplets,
    rmsprop_precondition,
    update_averaged,
    update_diffusion,
    update_m_averaged_full,
    update_m_averaged_triplets,
    update_three_particle,
    validate_schedule,
)
from ipslearn.models import Box, TruthSchedule, make_model, weight_matrix
from ipslearn.runner import run_experiment
from oracles import truth_stationarity


def const_sched(*scale):
    return LearningRateSchedule("constant", 1.0, scale=np.array(scale, dtype=float))


DT = 0.1


# the index set each kind reads, where a test gives none of its own
INDEX_SETS = {"averaged": {"particles": (0,)}, "triplet": {"triplets": ((0, 1, 2),)},
              "diffusion": {"particles": (0,)}}


def make_setup(model, schedule, kind="averaged", **kw):
    """An estimator setup as `config` resolves it: the model's own weight,
    and particle 0 or triplet (0, 1, 2) where the kind reads one and `kw`
    gives none."""
    return EstimatorSetup(kind, schedule=schedule, weight=weight_matrix(model),
                          **{**INDEX_SETS.get(kind, {}), **kw})


def apply(rule, theta, model, setup, pos, dx, t=0.0, keep=None, dt=DT):
    """A fresh state at `theta` after one call of `rule` at step `dt`."""
    s = EstimatorState(theta=np.array(theta, dtype=float))
    rule(s, setup, model, dt, pos, dx, model.mean_field(pos), t, keep)
    return s


# ---------------------------------------------------------------------------
# Cyclic triplets


def test_cyclic_triplets_standard():
    assert build_cyclic_triplets([2, 5, 7]) == ((2, 5, 7), (5, 7, 2), (7, 2, 5))


def test_cyclic_triplets_full_small_system():
    assert build_cyclic_triplets([0, 1, 2]) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_cyclic_triplets_extend_singleton():
    # Pi = {4} is extended with the smallest free indices {0, 1}; only the
    # cyclic triple starting in Pi is kept
    assert build_cyclic_triplets([4]) == ((4, 0, 1),)


def test_cyclic_triplets_extend_pair():
    ts = build_cyclic_triplets([4, 2])
    assert len(ts) == 2
    assert all(t[0] in (4, 2) for t in ts)
    for t in ts:
        assert len(set(t)) == 3


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cyclic_triplets_properties(data):
    n = data.draw(st.integers(3, 12))
    m = data.draw(st.integers(1, n))
    pi = data.draw(st.permutations(range(n)).map(lambda p: tuple(p[:m])))
    ts = build_cyclic_triplets(pi)
    assert len(ts) == len(pi)
    assert tuple(t[0] for t in ts if t[0] in pi) == tuple(t[0] for t in ts)
    for t in ts:
        assert len(set(t)) == 3 and all(0 <= i < n for i in t)
        # fewer than 3 indices are completed from 0, 1 and 2, so any N >= 3 has them
        assert all(i in pi or i in (0, 1, 2) for i in t)
    if len(pi) >= 3:
        assert tuple(t[0] for t in ts) == pi


# ---------------------------------------------------------------------------
# Single-step updates, hand-derived values


def test_update_averaged_single_particle_step():
    # N=1: empirical mean equals the particle, so the interaction column of
    # G vanishes and B(theta) = -theta1*x; with dx produced by the truth
    # drift (no noise), the residual is (theta01 - theta1)*x*dt
    m = make_model("linear", sigma=1.0)
    pos = np.array([[1.0]])
    dx = np.array([[-1.0 * 1.0 * 0.1]])  # truth theta0 = (1.0, 0.2), N=1
    setup = make_setup(m, const_sched(8e-3, 5e-3))
    new = apply(update_averaged, [1.5, 0.7], m, setup, pos, dx)
    resid = (-1.5 * 0.1) - (-0.1)  # = -0.05
    assert new.theta[0] == pytest.approx(1.5 - 8e-3 * (-1.0) * resid, abs=1e-15)
    assert new.theta[0] == pytest.approx(1.4996, abs=1e-12)
    assert new.theta[1] == 0.7  # G's interaction entry is zero


def test_update_averaged_zero_rate_is_identity():
    m = make_model("linear")
    pos = np.array([[1.0], [0.5]])
    dx = np.array([[0.2], [-0.1]])
    sched = LearningRateSchedule("constant", 1e-300)  # gamma must be positive
    new = apply(update_averaged, [1.5, 0.7], m, make_setup(m, sched), pos, dx)
    assert new.theta == pytest.approx([1.5, 0.7], abs=1e-290)


def test_update_three_particle_hand_step():
    # g uses (x_i - x_j), the drift residual uses (x_i - x_k); the rule reads
    # only particles i, j and k
    m = make_model("linear", sigma=1.0)
    pos = np.array([[1.0], [0.0], [2.0], [np.nan]])
    dx = np.array([[-0.1], [np.nan], [np.nan], [np.nan]])
    setup = make_setup(m, const_sched(8e-3, 5e-3), triplets=((0, 1, 2),))
    new = apply(update_three_particle, [1.5, 0.7], m, setup, pos, dx)
    b = -1.5 * 1.0 - 0.7 * (1.0 - 2.0)  # = -0.8
    resid = b * 0.1 - (-0.1)  # = 0.02
    g = np.array([-1.0, -(1.0 - 0.0)])
    want = np.array([1.5, 0.7]) - np.array([8e-3, 5e-3]) * g * resid
    assert new.theta == pytest.approx(want, abs=1e-15)


def test_m_triplet_with_single_triple_reduces_exactly():
    m = make_model("linear")
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((10, 1))
    dx = rng.standard_normal((10, 1)) * 0.1
    setup = make_setup(m, const_sched(8e-3, 5e-3), triplets=build_cyclic_triplets([4]))
    via_m = apply(update_m_averaged_triplets, [1.5, 0.7], m, setup, pos, dx)
    direct = apply(update_three_particle, [1.5, 0.7], m, setup, pos, dx)
    assert np.array_equal(via_m.theta, direct.theta)


def test_m_full_equals_mean_of_per_particle_updates():
    m = make_model("linear")
    rng = np.random.default_rng(5)
    pos = rng.standard_normal((3, 1))
    dx = rng.standard_normal((3, 1)) * 0.1
    sched = const_sched(8e-3, 5e-3)
    via_m = apply(update_m_averaged_full, [1.5, 0.7], m,
                  make_setup(m, sched, particles=(0, 1, 2)), pos, dx)
    singles = [
        apply(update_averaged, [1.5, 0.7], m, make_setup(m, sched, particles=(i,)), pos, dx).theta
        for i in range(3)
    ]
    assert via_m.theta == pytest.approx(np.mean(singles, axis=0), abs=1e-14)


def test_m_full_invariant_under_pi_permutation(tmp_path):
    # the config holds Pi sorted: any supplied order gives the same indices
    # and the same estimate bytes
    base = {**load_config("doublewell_fig5").raw, "n_particles": 8, "n_steps": 50,
            "replicates": 2, "base_seed": 6, "record_every": 1, "sweep": None}
    outputs = []
    for pi in ((5, 1, 7, 2, 6), (6, 2, 7, 1, 5), (1, 2, 5, 6, 7)):
        config = parse_config({**base, "estimators": [{
            "kind": "averaged_m", "pi": list(pi),
            "learning_rate": {"kind": "constant", "gamma0": 1.0,
                              "scale": [8e-3, 8e-3, 8e-3]}}]})
        assert config.estimators[0].particles == (1, 2, 5, 6, 7)
        out = tmp_path / "".join(map(str, pi))
        run_experiment(config, out)
        outputs.append([(out / name).read_bytes() for name in
                        ("estimates_r000.csv", "estimates_r001.csv", "summary.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_update_diffusion_fixed_point_and_hand_step():
    # every value below is exact in binary, so both results are exact
    m = make_model("vol32", eta=0.5)
    setup = make_setup(m, LearningRateSchedule("constant", 0.5))
    pos = np.array([[1.0]])
    # fixed point: the particle's dX^2 = 0.0625 = eta^2 |x|^3 dt
    new = apply(update_diffusion, [0.5], m, setup, pos, np.array([[0.25]]), dt=0.25)
    assert new.theta == pytest.approx([0.5], abs=0)
    # hand step: update = delta * (2 eta |x|^3) * (dX^2 - eta^2 |x|^3 dt)
    new = apply(update_diffusion, [0.5], m, setup, pos, np.array([[0.5]]), dt=0.25)
    assert new.theta == pytest.approx([0.5 + 0.5 * 1.0 * (0.25 - 0.0625)], abs=0)
    assert new.theta == pytest.approx([0.59375], abs=0)


def test_diffusion_setup_requires_parametric_model():
    # rejected while the config builds the setup, before any run starts
    cfg = {**load_config("linear_fig1").raw, "estimators": [
        {"kind": "diffusion", "learning_rate": {"kind": "constant", "gamma0": 0.01}}]}
    with pytest.raises(ConfigError, match="no diffusion parameters") as e:
        parse_config(cfg)
    assert e.value.field == "estimators[0].kind"


def test_free_mask_pins_known_parameters():
    m = make_model("double-well")
    setup = make_setup(m, const_sched(0.1, 0.1, 0.1), free_mask=np.array([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(0)
    pos = rng.standard_normal((5, 1))
    dx = rng.standard_normal((5, 1)) * 0.3
    new = apply(update_averaged, [0.5, 3.0, 2.0], m, setup, pos, dx)
    assert new.theta[2] == 2.0
    assert new.theta[0] != 0.5 and new.theta[1] != 3.0


def test_keep_mask_leaves_a_replicate_untouched():
    # replicates 0 and 3 start outside the box and would freeze, 1 and 2
    # would move; 1 and 3 are kept
    m = make_model("linear")
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((4, 5, 1))
    dx = rng.standard_normal((4, 5, 1)) * 0.3
    box = Box(np.array([0.0, 0.0]), np.array([1.6, 1.0]))
    setup = make_setup(m, const_sched(0.01, 0.01), bounds=box,
                       rmsprop=RmsPropConfig(0.9, 1e-8))
    theta = [[5.0, 0.7], [1.5, 0.7], [1.5, 0.7], [5.0, 0.7]]
    start = EstimatorState(theta=np.array(theta))
    keep = np.array([False, True, False, True])
    free = apply(update_averaged, theta, m, setup, pos, dx)
    assert free.frozen.tolist() == [True, False, False, True]
    assert not np.array_equal(free.theta[1], start.theta[1])
    kept = apply(update_averaged, theta, m, setup, pos, dx, keep=keep)
    for field in ("theta", "precond_acc", "frozen"):
        got, want = getattr(kept, field), getattr(free, field)
        assert np.array_equal(got[~keep], want[~keep])
        assert np.array_equal(got[keep], getattr(start, field)[keep])


def test_constant_schedule_vector_is_computed_once():
    sched = const_sched(0.008, 0.005)
    v = sched.value(0.0)
    assert sched.value(123.0) is v and not v.flags.writeable
    assert v.tolist() == [0.008, 0.005]
    assert LearningRateSchedule("constant", 0.3).value(7.0).tolist() == [0.3]
    power = LearningRateSchedule("power-law", 0.5, beta=0.7)
    assert power.value(3.0).tolist() == [0.5 * 4.0**-0.7]


# ---------------------------------------------------------------------------
# Constraints and freezing


def test_boundary_freeze_is_absorbing():
    m = make_model("linear")
    box = Box(np.array([0.0, 0.0]), np.array([np.inf, np.inf]))
    setup = make_setup(m, const_sched(5.0, 5.0), bounds=box)
    # a large step pushes theta2 negative -> update rejected, frozen forever
    state = EstimatorState(theta=np.array([0.5, 1e-9]))
    rng = np.random.default_rng(1)
    frozen_at = None
    for step in range(1000):
        pos = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1))
        update_averaged(state, setup, m, DT, pos, dx, m.mean_field(pos), step * 0.1, None)
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
    setup = make_setup(m, const_sched(0.01, 0.01))
    state = apply(update_averaged, [1.5, 0.7], m, setup, pos, bad_dx)
    assert state.frozen.shape == () and bool(state.frozen)
    assert state.theta.tolist() == [1.5, 0.7]
    update_averaged(state, setup, m, DT, pos, good_dx, m.mean_field(pos), 0.1, None)
    assert state.theta.tolist() == [1.5, 0.7] and bool(state.frozen)
    alone = apply(update_averaged, [1.5, 0.7], m, setup, pos, good_dx)
    batch = apply(update_averaged, [[1.5, 0.7], [1.5, 0.7]], m, setup, np.stack([pos, pos]),
                  np.stack([bad_dx, good_dx]))
    assert batch.frozen.tolist() == [True, False]
    assert batch.theta[0].tolist() == [1.5, 0.7]
    assert np.array_equal(batch.theta[1], alone.theta) and not bool(alone.frozen)
    assert alone.theta.tolist() != [1.5, 0.7]


def test_unbounded_never_freezes():
    m = make_model("linear")
    state = EstimatorState(theta=np.array([1.5, 0.7]))
    rng = np.random.default_rng(2)
    setup = make_setup(m, const_sched(0.01, 0.01))
    for step in range(200):
        pos = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1)) * 0.3
        update_averaged(state, setup, m, DT, pos, dx, m.mean_field(pos), step * 0.1, None)
    assert not bool(state.frozen)
    assert np.all(np.isfinite(state.theta))


def test_finite_steps_whose_sum_overflows_move_and_do_not_freeze():
    setup = make_setup(make_model("linear"), const_sched(1.0, 1.0))
    state = EstimatorState(theta=np.zeros((2, 2)))
    D = np.array([[-1e308, -1e308], [0.5, -0.25]])  # the step is -D; its sum is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est._apply_raw_update(state, D, 0.0, setup)
    assert state.frozen.tolist() == [False, False]
    assert state.theta.tolist() == [[1e308, 1e308], [-0.5, 0.25]]


def test_a_nan_step_freezes_its_replicate_only():
    setup = make_setup(make_model("linear"), const_sched(0.5, 0.5))
    state = EstimatorState(theta=np.array([[1.5, 0.75], [1.625, 0.875], [1.75, 0.5]]))
    est._apply_raw_update(state, np.array([[1.0, 2.0], [np.nan, 2.0], [-1.0, 0.0]]), 0.0, setup)
    assert state.frozen.tolist() == [False, True, False]
    assert state.theta.tolist() == [[1.0, -0.25], [1.625, 0.875], [2.25, 0.5]]
    est._apply_raw_update(state, np.ones((3, 2)), 0.1, setup)
    assert state.theta.tolist() == [[0.5, -0.75], [1.625, 0.875], [1.75, 0.0]]
    assert state.frozen.tolist() == [False, True, False]


def test_rmsprop_held_replicates_keep_theta_and_accumulator():
    # replicate 0 is frozen, 1 is kept this step, 2 moves; a step with no
    # replicate held writes the same bytes into replicate 2
    setup = make_setup(make_model("linear"), const_sched(0.01, 0.02),
                       rmsprop=RmsPropConfig(0.9, 1e-8))
    theta = np.array([[1.5, 0.7], [1.6, 0.8], [1.7, 0.9]])
    acc = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    D = np.array([[1.0, -2.0], [3.0, 0.5], [-1.5, 2.5]])
    state = EstimatorState(theta=theta.copy(), precond_acc=acc.copy(),
                           frozen=np.array([True, False, False]))
    est._apply_raw_update(state, D, 0.0, setup, keep=np.array([False, True, False]))
    assert state.frozen.tolist() == [True, False, False]
    assert np.array_equal(state.theta[:2], theta[:2])
    assert np.array_equal(state.precond_acc[:2], acc[:2])
    free = EstimatorState(theta=theta.copy(), precond_acc=acc.copy())
    est._apply_raw_update(free, D, 0.0, setup)
    assert not free.frozen.any()
    assert state.theta[2].tobytes() == free.theta[2].tobytes() != theta[2].tobytes()
    assert state.precond_acc[2].tobytes() == free.precond_acc[2].tobytes() != acc[2].tobytes()


def test_rmsprop_non_finite_step_freezes_quietly():
    setup = make_setup(make_model("linear"), const_sched(0.01, 0.02),
                       rmsprop=RmsPropConfig(0.9, 1e-8))
    theta = np.array([[1.5, 0.7], [1.6, 0.8]])
    acc = np.array([[0.1, 0.2], [0.3, 0.4]])
    state = EstimatorState(theta=theta.copy(), precond_acc=acc.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est._apply_raw_update(state, np.array([[-np.inf, 1.0], [1.0, -2.0]]), 0.0, setup)
    assert state.frozen.tolist() == [True, False]
    assert np.array_equal(state.theta[0], theta[0]) and np.array_equal(state.precond_acc[0], acc[0])
    assert not np.array_equal(state.theta[1], theta[1])


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
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    mean, se, z = truth_stationarity(
        m, truth, 20, 0.1, 20000, 33, const_sched(8e-3, 5e-3)
    )
    assert np.all(np.abs(z) <= 3.0)


class FirstThreeParticles:
    """Observer keeping the step-start positions of particles 0-2 of every
    replicate, (n_steps, R, 3, d)."""

    def __init__(self, n_steps, replicates, d):
        self.positions = np.empty((n_steps, replicates, 3, d))

    def on_step(self, step, t, positions, dx, stat, keep):
        self.positions[step] = positions[:, :3]


def test_triplet_finite_n_bias_shrinks_with_n():
    # pin theta at the truth and time-average the raw triplet gradient: its
    # mean is the finite-N gap between the pair and mean-field drifts, and
    # the confinement component shrinks roughly like 1/(N-1)
    from ipslearn.estimators import triplet_gradient
    from ipslearn.models import weight_matrix
    from ipslearn.sde import simulate

    m = make_model("linear")
    theta0 = np.array([1.0, 0.2])
    truth = TruthSchedule.constant(theta0)
    W = weight_matrix(m)
    drifts = {}
    for n in (3, 50):
        sums, count = np.zeros(2), 0
        steps, seeds = 100000, batch_seeds(13, 3)
        # each replicate's path is that of its own run (sde's determinism)
        obs = FirstThreeParticles(steps, len(seeds), 1)
        simulate(m, truth, n, 0.1, steps, seeds, observers=[obs])
        for r in range(len(seeds)):
            P = obs.positions[:, r]
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
    free = np.array([0.0, 1.0])
    thetas, _ = draw_initial_thetas(seeds, [1.0, 0.5], [1.0, 1.0])
    sched = const_sched(8e-3, 5e-3)
    setups = [
        make_setup(m, sched, theta_init=thetas, free_mask=free),
        make_setup(m, sched, kind="triplet", theta_init=thetas, free_mask=free),
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
    setups = [make_setup(m, sched, theta_init=thetas)]
    res = run_batch(m, truth, 50, 0.1, 10000, seeds, setups)
    sums = res.tracks[0].tail_mean.sum(axis=1)
    assert np.all(np.abs(sums - 1.2) <= 0.15)


def test_batch_matches_single_trajectory_observer():
    # the batch at R = 1 against the update rule driving an unbatched state
    # from a single trajectory's own observer
    from ipslearn.sde import run_trajectory

    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    sched = const_sched(8e-3, 5e-3)
    setup = make_setup(m, sched, theta_init=np.array([2.0, 0.75]))

    class Averaged:
        state = EstimatorState(theta=np.array([2.0, 0.75]))

        def on_step(self, step, t, positions, dx, stat, keep):
            update_averaged(self.state, setup, m, 0.1, positions[0], dx[0], None, t, None)

    obs = Averaged()
    run_trajectory(m, truth, 6, 0.1, 300, seed=77, observers=[obs])
    res = run_batch(m, truth, 6, 0.1, 300, [77], [setup])
    assert res.tracks[0].final[0] == pytest.approx(obs.state.theta, rel=1e-12)


def test_every_rule_call_goes_through_its_module_attribute(monkeypatch):
    # a tracer that wraps the update_* attributes of ipslearn.estimators must
    # see one call per estimator per step, with the state as first argument
    # and the run's own setup object (not a per-run copy) as the second
    assert set(RULES.values()) == {
        "update_averaged", "update_three_particle", "update_m_averaged_full",
        "update_m_averaged_triplets", "update_diffusion",
    }
    calls = {name: [] for name in RULES.values()}
    for name in RULES.values():
        def counting(*args, _name=name, _rule=getattr(est, name)):
            calls[_name].append((args[0].frozen.shape, args[1]))
            return _rule(*args)

        monkeypatch.setattr(est, name, counting)
    m = make_model("vol32", eta=0.7)
    sched = const_sched(0.01, 0.01, 0.05)
    thetas = np.array([2.7, 2.3, 1.0])
    setups = [
        make_setup(m, sched, theta_init=thetas),
        make_setup(m, sched, kind="triplet", theta_init=thetas),
        make_setup(m, sched, kind="averaged_m", particles=(0, 3), theta_init=thetas),
        make_setup(m, sched, kind="triplet_m", triplets=build_cyclic_triplets((1, 2)),
                   theta_init=thetas),
        EstimatorSetup("diffusion", particles=(0,),
                       schedule=LearningRateSchedule("constant", 0.01), theta_init=np.array([0.7])),
    ]
    n_steps, seeds = 25, batch_seeds(3, 2)
    res = run_batch(m, TruthSchedule.constant(thetas), 5, 0.01, n_steps, seeds, setups)
    assert not res.excluded.any()
    for setup in setups:
        seen = calls.pop(RULES[setup.kind])
        assert len(seen) == n_steps
        assert all(shape == (2,) and arg is setup for shape, arg in seen)
    assert calls == {}
