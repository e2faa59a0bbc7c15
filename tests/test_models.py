import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_grad_pair, random_probe
from ipslearn.models import Box, TruthSchedule, make_model, weight_matrix


# ---------------------------------------------------------------------------
# Pair drift values


def test_linear_drift_value():
    m = make_model("linear")
    b = m.drift_pair(np.array([1.0, 0.2]), np.array([1.0]), np.array([0.0]))
    assert b == pytest.approx([-1.2], abs=0)


def test_kuramoto_drift_vanishes_at_equal_phases():
    m = make_model("kuramoto")
    x = np.array([0.73])
    assert m.drift_pair(np.array([1.5]), x, x) == pytest.approx([0.0], abs=0)


def test_kuramoto_antisymmetry_exact():
    m = make_model("kuramoto")
    rng = np.random.default_rng(0)
    for _ in range(20):
        th = rng.standard_normal(1)
        x, y = rng.standard_normal(1), rng.standard_normal(1)
        assert np.array_equal(
            m.drift_pair(th, x, y), -m.drift_pair(th, y, x)
        )


def test_cucker_smale_drift_value():
    # psi(0.5, 4) = 5^-0.5; velocity drift = -0.2*0 - 1.0*psi*(1-0)
    m = make_model("cucker-smale")
    b = m.drift_pair(
        np.array([0.2, 1.0, 0.5]), np.array([0.0, 1.0]), np.array([2.0, 0.0])
    )
    psi = (1.0 + 4.0) ** -0.5
    assert b[0] == pytest.approx(1.0, abs=0)
    assert b[1] == pytest.approx(-psi, rel=1e-12)


def test_cucker_smale_exponent_gradient():
    # chain rule on (1+u)^-t3: d/dt3 of the velocity drift is
    # +t2*log(1+u)*(1+u)^-t3*(v_i - v_j); checked against the FD oracle
    m = make_model("cucker-smale")
    th = np.array([0.2, 1.0, 0.5])
    x, y = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    expected = np.log(5.0) * 5.0**-0.5  # = 0.71976176...
    g = m.grad_pair(th, x, y)
    assert g[2, 1] == pytest.approx(expected, rel=1e-12)
    fd = fd_grad_pair(m, th, x, y)
    assert g[2, 1] == pytest.approx(fd[2, 1], rel=1e-6)


def _full_pair_drift(model, theta, positions):
    """Oracle: the Cucker-Smale ensemble drift over whole (..., N, N) pair arrays."""
    q, v = positions[..., 0], positions[..., 1]
    u = (q[..., :, None] - q[..., None, :]) ** 2
    psi = model._psi(theta[2], u)
    inter = (psi * (v[..., :, None] - v[..., None, :])).mean(axis=-1)
    b2 = -theta[0] * q - theta[1] * inter
    return np.stack([v, b2], axis=-1)


@pytest.mark.parametrize("lead", [(), (1,), (3,)])
@pytest.mark.parametrize("n", [1, 2, 50, 64, 65, 66, 131, 500, 1200])
def test_cucker_smale_row_blocks_match_full_pairs_bitwise(lead, n):
    # one chunk, several replicates per chunk, row blocks with a ragged last
    # block (N = 500 and 1200): the same bits as the full evaluation
    m = make_model("cucker-smale")
    pos = np.random.default_rng(n).standard_normal(lead + (n, 2))
    pos[..., n // 2, :] = pos[..., 0, :]  # coincident particles
    for t3 in (0.0, 0.5, 1.7):
        th = np.array([0.4, 1.3, t3])
        got, want = m.drift_ensemble(th, pos), _full_pair_drift(m, th, pos)
        assert got.shape == want.shape == lead + (n, 2)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cucker_smale_ragged_replicate_chunk_matches_full_pairs_bitwise():
    # at N = 50 a chunk holds 13 whole replicates, so R = 30 ends on a chunk of 4
    m = make_model("cucker-smale")
    pos = np.random.default_rng(5).standard_normal((30, 50, 2))
    th = np.array([0.4, 1.3, 1.7])
    assert m.drift_ensemble(th, pos).tobytes() == _full_pair_drift(m, th, pos).tobytes()


@pytest.mark.parametrize("r,n", [(2, 2000), (400, 50)])
def test_cucker_smale_drift_memory_is_bounded(r, n):
    # a single full (R, N, N) temporary is 64 MB at R = 2, N = 2000 (row
    # blocks) and 8 MB at R = 400, N = 50 (chunks of whole replicates)
    m = make_model("cucker-smale")
    pos = np.random.default_rng(0).standard_normal((r, n, 2))
    tracemalloc.start()
    try:
        m.drift_ensemble(np.array([0.4, 1.3, 0.5]), pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_gradients_match_finite_differences(zoo_model):
    rng = np.random.default_rng(42)
    for _ in range(20):
        theta, x, y = random_probe(zoo_model, rng)
        g = zoo_model.grad_pair(theta, x, y)
        fd = fd_grad_pair(zoo_model, theta, x, y)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))


def test_linear_grad_is_theta_free():
    m = make_model("linear")
    x, y = np.array([0.4]), np.array([-1.1])
    g1 = m.grad_pair(np.array([1.0, 0.2]), x, y)
    g2 = m.grad_pair(np.array([-3.0, 7.0]), x, y)
    assert np.array_equal(g1, g2)
    assert g1 == pytest.approx(np.array([[-0.4], [-(0.4 + 1.1)]]))


# ---------------------------------------------------------------------------
# Empirical-measure forms


def test_drift_mean_linear_closed_form():
    m = make_model("linear")
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((8, 1))
    th = np.array([1.0, 0.2])
    xbar = pos.mean()
    want = -1.0 * pos[2] - 0.2 * (pos[2] - xbar)
    assert m.drift_mean(th, pos[2], pos) == pytest.approx(want, rel=1e-14)


def test_drift_mean_single_particle_reduces_to_pair():
    for m in (make_model("linear"), make_model("kuramoto"), make_model("vol32", eta=0.7)):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((1, m.d))
        th = rng.standard_normal(m.p)
        assert m.drift_mean(th, pos[0], pos) == pytest.approx(
            m.drift_pair(th, pos[0], pos[0]), rel=1e-14
        )


def test_drift_and_grad_mean_match_bruteforce(zoo_model):
    rng = np.random.default_rng(7)
    pos = rng.standard_normal((7, zoo_model.d))
    th = rng.standard_normal(zoo_model.p)
    brute_b = np.mean([zoo_model.drift_pair(th, pos[3], pos[j]) for j in range(7)], axis=0)
    brute_g = np.mean([zoo_model.grad_pair(th, pos[3], pos[j]) for j in range(7)], axis=0)
    assert zoo_model.drift_mean(th, pos[3], pos) == pytest.approx(brute_b, abs=1e-14)
    assert zoo_model.grad_mean(th, pos[3], pos) == pytest.approx(brute_g, abs=1e-14)
    brute_all = np.stack(
        [np.mean([zoo_model.drift_pair(th, pos[i], pos[j]) for j in range(7)], axis=0)
         for i in range(7)]
    )
    assert zoo_model.drift_ensemble(th, pos) == pytest.approx(brute_all, abs=1e-14)


def test_shared_mean_field_statistic_is_bitwise_neutral(zoo_model):
    # evaluators given the precomputed statistic return the same bytes as
    # those computing it themselves, batched over replicates
    rng = np.random.default_rng(13)
    pos = rng.standard_normal((4, 9, zoo_model.d))
    th = rng.standard_normal((4, zoo_model.p))
    stat = zoo_model.mean_field(pos)
    x = pos[:, 2, :]
    for fn in (zoo_model.drift_mean, zoo_model.grad_mean):
        assert fn(th, x, pos, stat).tobytes() == fn(th, x, pos).tobytes()
    ens = zoo_model.drift_ensemble(th[0], pos, stat)
    assert ens.tobytes() == zoo_model.drift_ensemble(th[0], pos).tobytes()


def test_mean_field_statistics():
    pos = np.array([[[0.0], [1.0], [2.0]]])
    assert make_model("linear").mean_field(pos).tolist() == [[1.0]]
    cbar, sbar, cos, sin = make_model("kuramoto").mean_field(pos)
    assert cos.tobytes() == np.cos(pos).tobytes() and sin.tobytes() == np.sin(pos).tobytes()
    assert cbar[0, 0] == pytest.approx(np.cos([0.0, 1.0, 2.0]).mean())
    assert sbar[0, 0] == pytest.approx(np.sin([0.0, 1.0, 2.0]).mean())
    fhn = np.array([[1.0, 5.0], [3.0, 7.0]])
    assert make_model("fitzhugh-nagumo").mean_field(fhn).tolist() == [2.0]
    assert make_model("cucker-smale").mean_field(fhn) is None


def test_drift_mean_permutation_invariant(zoo_model):
    rng = np.random.default_rng(11)
    pos = rng.standard_normal((6, zoo_model.d))
    th = rng.standard_normal(zoo_model.p)
    base = zoo_model.drift_mean(th, pos[0], pos)
    perm = np.concatenate([pos[:1], pos[1:][::-1]])
    assert zoo_model.drift_mean(th, perm[0], perm) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Weighting and diffusion


def test_identity_weighting_never_inverts():
    # degenerate sigma blocks would make the inverse blow up; identity
    # weighting must not touch them
    for m in (make_model("fitzhugh-nagumo"), make_model("cucker-smale"),
              make_model("vol32", eta=0.7)):
        assert m.weighting == "identity"
        assert np.array_equal(weight_matrix(m), np.eye(m.d))


def test_inverse_weighting_value():
    m = make_model("linear", sigma=2.0)
    assert weight_matrix(m) == pytest.approx(np.array([[0.25]]))


def test_constant_diffusion_returned():
    m = make_model("linear", sigma=1.0)
    assert m.diffusion.sigma == pytest.approx(np.eye(1))


INV_SQ = 1.0 / (0.7 * 0.7)


@pytest.mark.parametrize("model_id, sigma, weight", [
    ("linear", [[0.7]], [[INV_SQ]]),
    ("double-well", [[0.7]], [[INV_SQ]]),
    ("kuramoto", [[0.7]], [[INV_SQ]]),
    ("fitzhugh-nagumo", [[0.7, 0.0], [0.0, 0.0]], np.eye(2)),
    ("cucker-smale", [[0.0, 0.0], [0.0, 0.7]], np.eye(2)),
])
def test_constant_sigma_constructor(model_id, sigma, weight):
    # sigma sits on the noisy coordinates only; the weighting inverts the
    # full-noise models and is the identity for the degenerate ones
    m = make_model(model_id, sigma=0.7)
    assert np.array_equal(m.diffusion.sigma, sigma)
    assert np.array_equal(weight_matrix(m), weight)


def test_vol32_diffusion_values():
    m = make_model("vol32", eta=0.7)
    # the simulation's noise uses the model's own eta ...
    dw = m.diffusion.apply(np.array([[-2.0]]), np.array([[0.5]]))
    assert dw == pytest.approx(np.array([[0.7 * 2.0**1.5 * 0.5]]), rel=1e-12)
    # ... the estimator's variance terms the estimate they are given
    eta = np.array([0.3])
    sig_sq = m.diffusion.sigma_sq(eta, np.array([-2.0]))
    assert sig_sq == pytest.approx([0.09 * 2.0**3], rel=1e-12)
    dsig1 = m.diffusion.d_eta_sigma_sq(eta, np.array([1.0]))
    assert dsig1 == pytest.approx([0.6], rel=1e-12)


def test_the_true_eta_is_a_constructor_argument():
    # a model with diffusion parameters cannot be built without its eta,
    # and a model without them takes none
    with pytest.raises(TypeError):
        make_model("vol32")
    with pytest.raises(TypeError):
        make_model("linear", eta=0.7)
    assert make_model("vol32", eta=0.7).diffusion.eta == 0.7


# ---------------------------------------------------------------------------
# Truth schedules, boxes


def test_changepoint_is_right_continuous():
    s = TruthSchedule("changepoint", [1.5], [0.2], switch_time=5000.0)
    assert s.at(4999.9) == pytest.approx([1.5])
    assert s.at(5000.0) == pytest.approx([0.2])


def test_ramp_interpolates_and_clamps():
    s = TruthSchedule("ramp", [1.5], [0.2], horizon=10000.0)
    assert s.at(5000.0) == pytest.approx([0.85])
    assert s.at(20000.0) == pytest.approx([0.2])


def test_constant_ignores_time():
    s = TruthSchedule.constant([1.0, 0.2])
    for t in (0.0, 3.7, 1e6):
        assert s.at(t) == pytest.approx([1.0, 0.2])


def test_box_membership_and_validation():
    b = Box(np.array([0.0, -np.inf]), np.array([1.0, np.inf]))
    assert b.contains(np.array([0.5, 100.0]))
    assert not b.contains(np.array([-0.1, 0.0]))


@settings(max_examples=30, deadline=None)
@given(
    th=st.floats(-3, 3),
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
)
def test_kuramoto_gradient_property(th, x, y):
    m = make_model("kuramoto")
    theta = np.array([th])
    g = m.grad_pair(theta, np.array([x]), np.array([y]))
    fd = fd_grad_pair(m, theta, np.array([x]), np.array([y]))
    assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))
