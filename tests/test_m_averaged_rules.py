"""The averaged and triplet rules against the list form, bit for bit.

Each averaged and triplet rule must give, bit for bit, the gradient of the
list form in `oracles` (one evaluation per index, added in list order,
divided by M), and the step that gradient makes.  At |Pi| = 1 the rules
skip the list and the division by one, and the update adds into theta in
place; any other evaluation of the mean over Pi (a stacked one, say) must
pass the same check.  The cases cover every model, |Pi| in {1, 3, 10, 50}
over all N = 50 particles, several random ensembles each, and a Kuramoto
batch of one replicate, where R * p = 1 and a numpy reduce over a stacked
index axis would sum pairwise instead of in order.
"""

import numpy as np
import pytest

from ipslearn import estimators as est
from ipslearn.batch import EstimatorSetup
from ipslearn.estimators import EstimatorState, LearningRateSchedule, build_cyclic_triplets
from ipslearn.models import MODEL_ZOO, weight_matrix

from conftest import build_zoo_model
from oracles import averaged_mean_list, triplet_mean_list

N, R, DT, DRAWS = 50, 10, 0.05, 5
SIZES = (1, 3, 10, 50)
AVERAGED_RULES = (est.update_averaged, est.update_m_averaged_full)
TRIPLET_RULES = (est.update_three_particle, est.update_m_averaged_triplets)


def _draw(model, rng, replicates):
    theta = rng.uniform(0.1, 1.5, (replicates, model.p))
    positions = rng.standard_normal((replicates, N, model.d))
    dx = 0.2 * rng.standard_normal((replicates, N, model.d))
    return theta, positions, dx


def _check(monkeypatch, model, replicates, size, seed):
    rng = np.random.default_rng(seed)
    W = weight_matrix(model)
    schedule = LearningRateSchedule("constant", 0.3, scale=rng.uniform(0.5, 2.0, model.p))
    for _ in range(DRAWS):
        pi = tuple(sorted(rng.choice(N, size, replace=False).tolist()))
        triplets = build_cyclic_triplets(pi)
        theta, positions, dx = _draw(model, rng, replicates)
        stat = model.mean_field(positions)
        setup = EstimatorSetup(
            "averaged", particles=pi, triplets=triplets, schedule=schedule, weight=W
        )
        expected = {
            AVERAGED_RULES: averaged_mean_list(model, theta, positions, dx, DT, W, pi, stat),
            TRIPLET_RULES: triplet_mean_list(model, theta, positions, dx, DT, W, triplets),
        }
        for rules, D in expected.items():
            assert np.isfinite(D).all()
            for rule in rules:
                seen = []
                state = EstimatorState(theta=theta.copy())
                with monkeypatch.context() as m:
                    m.setattr(est, "_apply_raw_update", lambda st, grad, *args: seen.append(grad))
                    rule(state, setup, model, DT, positions, dx, stat, 0.0, None)
                (D_rule,) = seen
                assert D_rule.shape == D.shape and D_rule.tobytes() == D.tobytes(), (
                    f"{rule.__name__}, |Pi| = {size}: the gradient differs from the list form"
                )
                rule(state, setup, model, DT, positions, dx, stat, 0.0, None)
                step = theta + -schedule.value(0.0) * D
                assert state.theta.tobytes() == step.tobytes(), rule.__name__


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("model_id", sorted(MODEL_ZOO))
def test_rules_equal_the_list_form(monkeypatch, model_id, size):
    _check(monkeypatch, build_zoo_model(model_id), R, size, seed=1000 * size + len(model_id))


@pytest.mark.parametrize("size", SIZES)
def test_rules_equal_the_list_form_for_one_replicate_of_one_parameter(monkeypatch, size):
    model = build_zoo_model("kuramoto")
    assert model.p == 1
    _check(monkeypatch, model, 1, size, seed=7 + size)

