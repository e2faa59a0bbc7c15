import numpy as np
import pytest

from conftest import fd_grad_contrast
from ipslearn.models import make_model
from ipslearn.objective import contrast_L, contrast_ell, surface_scan
from oracles import grad_H, grad_h_sym, linear_model_analytic_objective


def test_contrast_vanishes_at_truth(zoo_model):
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((6, zoo_model.d))
    th = rng.standard_normal(zoo_model.p)
    assert contrast_L(zoo_model, th, pos[0], pos, th) == pytest.approx(0.0, abs=0)
    assert grad_H(zoo_model, th, pos[0], pos, th) == pytest.approx(
        np.zeros(zoo_model.p), abs=0
    )


def test_contrast_linear_hand_value():
    # ensemble with zero mean: B(theta, 1, mu) = -(theta1 + theta2)
    m = make_model("linear")
    pos = np.array([[1.0], [-1.0]])
    L = contrast_L(m, np.array([1.5, 0.7]), np.array([1.0]), pos, np.array([1.0, 0.2]))
    assert L == pytest.approx(0.5, rel=1e-14)  # residual -1, weight 1


def test_contrast_is_nonnegative(zoo_model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        pos = rng.standard_normal((5, zoo_model.d))
        th = rng.standard_normal(zoo_model.p)
        th0 = rng.standard_normal(zoo_model.p)
        assert contrast_L(zoo_model, th, pos[0], pos, th0) >= 0.0


def test_ell_equal_arguments_is_square():
    m = make_model("linear")
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((5, 1))
    th, th0 = np.array([1.5, 0.7]), np.array([1.0, 0.2])
    v = contrast_ell(m, th, pos[0], pos[1], pos[1], pos, th0)
    B0 = m.drift_mean(th0, pos[0], pos)
    r = m.drift_pair(th, pos[0], pos[1]) - B0
    assert v == pytest.approx(0.5 * float(r @ r), rel=1e-14)
    assert v >= 0


def test_ell_at_truth_not_generally_zero():
    # pointwise pair drift differs from the mean-field drift even at the
    # true parameter
    m = make_model("linear")
    rng = np.random.default_rng(5)
    pos = rng.standard_normal((5, 1))
    th0 = np.array([1.0, 0.2])
    v = contrast_ell(m, th0, pos[0], pos[1], pos[2], pos, th0)
    assert abs(v) > 1e-8


def test_ell_double_sum_reproduces_L(zoo_model):
    rng = np.random.default_rng(6)
    N = 7
    for _ in range(20):
        pos = rng.standard_normal((N, zoo_model.d))
        th = rng.standard_normal(zoo_model.p)
        th0 = rng.standard_normal(zoo_model.p)
        x = pos[0]
        total = 0.0
        for j in range(N):
            for k in range(N):
                total += contrast_ell(zoo_model, th, x, pos[j], pos[k], pos, th0)
        L = contrast_L(zoo_model, th, x, pos, th0)
        assert total / N**2 == pytest.approx(L, abs=1e-12 * (1 + abs(L)))


def test_h_sym_double_sum_reproduces_H(zoo_model):
    rng = np.random.default_rng(7)
    N = 7
    for _ in range(5):
        pos = rng.standard_normal((N, zoo_model.d))
        th = rng.standard_normal(zoo_model.p)
        th0 = rng.standard_normal(zoo_model.p)
        x = pos[0]
        total = np.zeros(zoo_model.p)
        for j in range(N):
            for k in range(N):
                total += grad_h_sym(zoo_model, th, x, pos[j], pos[k], pos, th0)
        H = grad_H(zoo_model, th, x, pos, th0)
        assert total / N**2 == pytest.approx(H, abs=1e-12 * (1 + np.abs(H).max()))


def test_grad_H_matches_finite_difference(zoo_model):
    rng = np.random.default_rng(8)
    for _ in range(20):
        pos = rng.standard_normal((5, zoo_model.d))
        th = rng.standard_normal(zoo_model.p)
        th0 = rng.standard_normal(zoo_model.p)
        H = grad_H(zoo_model, th, pos[0], pos, th0)
        fd = fd_grad_contrast(zoo_model, th, pos[0], pos, th0, contrast_L)
        assert np.linalg.norm(H - fd) <= 1e-6 * (1 + np.linalg.norm(H))


def test_grad_h_matches_finite_difference_of_ell():
    m = make_model("linear")
    rng = np.random.default_rng(9)
    pos = rng.standard_normal((6, 1))
    th, th0 = rng.standard_normal(2), rng.standard_normal(2)
    x, y, z = pos[0], pos[1], pos[2]
    got = grad_h_sym(m, th, x, y, z, pos, th0)
    h = 1e-6
    fd = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd[k] = (
            contrast_ell(m, th + e, x, y, z, pos, th0)
            - contrast_ell(m, th - e, x, y, z, pos, th0)
        ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# Analytic oracle


def test_analytic_objective_values():
    th0 = np.array([1.0, 0.2])
    assert linear_model_analytic_objective(th0, th0, 1.0) == 0.0
    v = linear_model_analytic_objective([1.5, 0.7], th0, 1.0)
    assert v == pytest.approx(1.0 * (1.0 / 2.4) / 2.0, rel=1e-14)  # 0.208333...
    assert linear_model_analytic_objective([1.2, 0.0], th0, 1.0) == 0.0  # ridge


# ---------------------------------------------------------------------------
# Surface scans


def test_scan_at_truth_is_essentially_zero():
    m = make_model("linear")
    values = surface_scan(
        m, (np.array([1.0]), np.array([0.2])), 20, 0.1, 20000, 2000, "L_iN",
        seed=2, theta_true=[1.0, 0.2],
    )
    assert values[0, 0] <= 1e-3


def test_scan_values_nonnegative_for_particle_contrast():
    m = make_model("linear")
    axes = (np.array([0.6, 1.0, 1.4]), np.array([-0.2, 0.2, 0.6]))
    values = surface_scan(m, axes, 10, 0.1, 3000, 300, "L_iN", seed=3,
                          theta_true=[1.0, 0.2])
    assert np.all(values >= 0)


def test_scan_minimum_lies_on_the_ridge():
    # non-identifiability of the linear model: the minimising grid point has
    # theta1 + theta2 within one grid cell of the true sum
    m = make_model("linear")
    axes = (np.arange(0.25, 1.80, 0.25), np.arange(-0.55, 1.00, 0.25))
    values = surface_scan(m, axes, 20, 0.1, 20000, 2000, "L_iN", seed=4,
                          theta_true=[1.0, 0.2])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    assert abs(axes[0][i] + axes[1][j] - 1.2) <= 0.5 + 1e-9


def test_triplet_scan_kind_uses_polarised_contrast():
    m = make_model("linear")
    axes = (np.array([1.0, 1.6]), np.array([0.2, 0.8]))
    values = surface_scan(m, axes, 10, 0.1, 2000, 200, "L_ijkN", seed=6,
                          theta_true=[1.0, 0.2])
    # truth point should be near the minimum of the triplet surface too
    assert values[0, 0] == values.min()
