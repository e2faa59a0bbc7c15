"""Golden digests of short batch runs: the estimator hot path, bit for bit.

Each case runs `run_batch` for 200 steps on three replicates and hashes
every array the runner's artifacts are built from (`theta_path`,
`frozen_path`, `tail_mean`, `final`, `frozen_final` per estimator, plus
`excluded`, `blowup_step` and the final positions).  The digests in
`data/hotpath_digests.json` were generated before the per-step path was
fused and hoisted; a rewrite of that path must reproduce them exactly.

The cases cover all six models and all five estimator kinds, plus box
freezing, a non-finite gradient freeze, RMSProp, a free-parameter mask, a
power-law schedule, a weight override, changepoint and ramp truths, and a
vol32 batch in which some but not all replicates blow up.  Each case also
asserts that it exercises what it names, so a digest cannot silently stop
covering a branch.

Regenerate (only when outputs are meant to move, and say why):

    PYTHONPATH=src python tests/test_hotpath_parity.py --write
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ipslearn.batch import EstimatorSetup, batch_seeds, draw_initial_thetas, run_batch
from ipslearn.estimators import LearningRateSchedule, RmsPropConfig, build_cyclic_triplets
from ipslearn.models import Box, LinearModel, TruthSchedule, make_model, weight_matrix

DIGESTS = Path(__file__).with_name("data") / "hotpath_digests.json"
N_STEPS = 200
REPLICATES = 3


def const(*scale, gamma0=1.0):
    return LearningRateSchedule("constant", gamma0, scale=np.array(scale) if scale else None)


def power(*scale, gamma0=1.0, beta=0.7):
    return LearningRateSchedule("power-law", gamma0, beta=beta, scale=np.array(scale))


def _case_linear_all_kinds():
    model = make_model("linear", sigma=0.8)
    sched = const(0.008, 0.005)
    return dict(
        model=model, truth=TruthSchedule.constant([1.0, 0.2]), n=8, dt=0.1, seed=101,
        init=([1.5, 0.5], [2.5, 1.0]), record_every=7,
        setups=[
            EstimatorSetup("averaged", particles=(3,), schedule=sched),
            EstimatorSetup("triplet", triplets=((2, 0, 5),), schedule=sched),
            EstimatorSetup("averaged_m", particles=(1, 5, 7), schedule=sched),
            EstimatorSetup("triplet_m", triplets=build_cyclic_triplets((0, 2)), schedule=sched),
            EstimatorSetup("averaged", particles=(0,), label="identity_weight",
                           schedule=sched, weight=np.eye(1)),
        ],
    )


def _case_linear_mask_power_rmsprop():
    model = make_model("linear")
    return dict(
        model=model, truth=TruthSchedule.constant([1.0, 0.2]), n=6, dt=0.1, seed=202,
        init=([1.5, 0.5], [2.5, 1.0]), record_every=3,
        setups=[
            EstimatorSetup("averaged", particles=(0,), schedule=power(0.05, 0.05),
                           free_mask=np.array([0.0, 1.0])),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=const(0.02, 0.02),
                           rmsprop=RmsPropConfig(0.9, 1e-8)),
            EstimatorSetup("averaged_m", particles=(0, 1, 2, 3),
                           schedule=power(0.02, 0.01, beta=1.0),
                           rmsprop=RmsPropConfig(0.99, 1e-6),
                           free_mask=np.array([1.0, 0.0])),
        ],
        expect=lambda res: _pinned(res.tracks[0], 0),
    )


def _case_linear_diverging():
    # gamma far too large: theta overflows, the gradient turns non-finite and
    # the batched update freezes the replicate instead of raising
    model = make_model("linear")
    return dict(
        model=model, truth=TruthSchedule.constant([1.0, 0.2]), n=5, dt=0.1, seed=303,
        init=([1.5, 0.5], [2.5, 1.0]), record_every=10,
        setups=[EstimatorSetup("averaged", particles=(0,), schedule=const(1000.0, 1000.0))],
        expect=lambda res: _some_not_all(res.tracks[0].frozen_final, "non-finite freeze"),
    )


def _case_double_well_bounded():
    model = make_model("double-well", sigma=2.0)
    box = Box(np.array([0.8, 1.5, 1.5]), np.array([2.0, 2.6, 2.6]))
    return dict(
        model=model, truth=TruthSchedule.constant([1.0, 2.0, 2.0]), n=7, dt=0.1, seed=404,
        init=([1.0, 1.8, 1.8], [1.8, 2.2, 2.2]), record_every=5,
        setups=[
            EstimatorSetup("averaged", particles=(0,), schedule=const(0.05, 0.05, 0.05),
                           bounds=box),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=const(0.01, 0.01, 0.01),
                           bounds=box, rmsprop=RmsPropConfig(0.9, 1e-8)),
            EstimatorSetup("triplet_m", triplets=build_cyclic_triplets((1, 2, 3, 4)),
                           schedule=const(0.002, 0.002, 0.002)),
        ],
        expect=lambda res: _some_not_all(
            res.tracks[0].frozen_final | res.tracks[1].frozen_final, "box freeze"),
    )


def _case_fitzhugh_nagumo():
    model = make_model("fitzhugh-nagumo")
    sched = const(0.01, 0.01, 0.01, 0.01)
    return dict(
        model=model, truth=TruthSchedule.constant([0.5, 0.3, 0.7, 1.0]), n=6, dt=0.1, seed=505,
        init=([1.0, 0.0, 0.0, 1.0], [2.0, 1.0, 0.5, 1.5]), record_every=4,
        setups=[
            EstimatorSetup("averaged", particles=(1,), schedule=sched),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=sched),
            EstimatorSetup("averaged_m", particles=(0, 3, 5), schedule=sched),
            EstimatorSetup("triplet_m", triplets=build_cyclic_triplets((4,)), schedule=sched),
        ],
    )


def _case_kuramoto_changepoint():
    model = make_model("kuramoto")
    return dict(
        model=model,
        truth=TruthSchedule("changepoint", [1.5], [0.2], switch_time=10.0),
        n=9, dt=0.1, seed=606, init=([2.0], [3.0]), record_every=10,
        setups=[
            EstimatorSetup("averaged", particles=(0,), schedule=const(gamma0=0.5)),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=const(gamma0=0.5),
                           bounds=Box(np.array([0.0]), np.array([5.0]))),
            EstimatorSetup("averaged_m", particles=(0, 4, 8), schedule=const(gamma0=0.5)),
            EstimatorSetup("triplet_m", triplets=build_cyclic_triplets((1, 2, 3)),
                           schedule=power(0.5)),
        ],
    )


def _case_kuramoto_ramp():
    model = make_model("kuramoto", sigma=0.7)
    return dict(
        model=model, truth=TruthSchedule("ramp", [1.5], [0.2], horizon=15.0),
        n=4, dt=0.1, seed=707, init=([2.0], [3.0]), record_every=1,
        setups=[EstimatorSetup("averaged", particles=(0,), schedule=const(gamma0=0.5))],
    )


def _case_cucker_smale():
    model = make_model("cucker-smale")
    sched = const(0.01, 0.01, 0.005)
    free = np.array([0.0, 1.0, 0.0])
    return dict(
        model=model, truth=TruthSchedule.constant([0.2, 1.0, 0.5]), n=6, dt=0.1, seed=808,
        init=([0.2, 2.0, 0.5], [0.2, 3.0, 0.5]), record_every=10,
        setups=[
            EstimatorSetup("averaged", particles=(0,), schedule=sched, free_mask=free),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=sched, free_mask=free),
            EstimatorSetup("averaged_m", particles=(1, 4), schedule=sched),
            EstimatorSetup("triplet_m", triplets=build_cyclic_triplets((0, 1, 2, 5)),
                           schedule=sched, free_mask=free),
        ],
    )


def _case_vol32_partial_blowup():
    model = make_model("vol32", eta=2.0)
    sched = const(0.01, 0.01, 0.05)
    return dict(
        model=model, truth=TruthSchedule.constant([2.7, 2.3, 1.0]), n=10, dt=0.045, seed=3,
        init=([1.0, 3.5, 0.0], [1.5, 4.0, 0.2]), record_every=10,
        setups=[
            EstimatorSetup("averaged", particles=(0,), schedule=sched),
            EstimatorSetup("triplet", triplets=((0, 1, 2),), schedule=sched),
            EstimatorSetup("averaged_m", particles=(0, 1, 2), schedule=sched),
            EstimatorSetup("diffusion", particles=(0,), schedule=const(gamma0=0.01),
                           bounds=model.eta_bounds),
        ],
        expect=lambda res: _some_not_all(res.excluded, "blow-up"),
    )


CASES = {
    "linear-all-kinds": _case_linear_all_kinds,
    "linear-mask-power-rmsprop": _case_linear_mask_power_rmsprop,
    "linear-diverging": _case_linear_diverging,
    "double-well-bounded": _case_double_well_bounded,
    "fitzhugh-nagumo": _case_fitzhugh_nagumo,
    "kuramoto-changepoint": _case_kuramoto_changepoint,
    "kuramoto-ramp": _case_kuramoto_ramp,
    "cucker-smale": _case_cucker_smale,
    "vol32-partial-blowup": _case_vol32_partial_blowup,
}


def _pinned(track, k):
    path = track.theta_path[:, :, k]
    assert np.all(path == path[0]), "a masked coordinate must never move"


def _some_not_all(flags, what):
    assert np.any(flags) and not np.all(flags), f"case must show a partial {what}: {flags}"


def run_case(name):
    spec = CASES[name]()
    seeds = batch_seeds(spec["seed"], REPLICATES)
    thetas, etas = draw_initial_thetas(seeds, *spec["init"])
    for s in spec["setups"]:
        if s.kind == "diffusion":
            s.theta_init = etas * 2.0
        else:
            # as `config` resolves it: the model's own weight unless overridden
            s.theta_init = thetas
            if s.weight is None:
                s.weight = weight_matrix(spec["model"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_batch(
            spec["model"], spec["truth"], spec["n"], spec["dt"], N_STEPS, seeds,
            spec["setups"], record_every=spec["record_every"],
        )
    return spec, res


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digests_of(res) -> dict:
    out = {
        "excluded": digest(res.excluded),
        "blowup_step": digest(res.blowup_step),
        "final_positions": digest(res.final_positions),
    }
    for tr in res.tracks:
        for field in ("theta_path", "frozen_path", "tail_mean", "final", "frozen_final"):
            out[f"{tr.setup.label}.{field}"] = digest(getattr(tr, field))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_cases_cover_every_model_and_kind():
    models, kinds = set(), set()
    for build in CASES.values():
        spec = build()
        models.add(spec["model"].model_id)
        kinds.update(s.kind for s in spec["setups"])
    assert models == {"linear", "double-well", "fitzhugh-nagumo", "kuramoto",
                      "cucker-smale", "vol32"}
    assert kinds == {"averaged", "triplet", "averaged_m", "triplet_m", "diffusion"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hot_path_digests(name, golden):
    spec, res = run_case(name)
    if "expect" in spec:
        spec["expect"](res)
    assert digests_of(res) == golden[name]


# ---------------------------------------------------------------------------
# Blow-up guard at its edges


class _DrivenLinear(LinearModel):
    """Linear model whose replicates are driven to chosen states.

    The drift is zero and the "diffusion" moves replicate r to `targets[r]`
    at step `at[r]`: first to exactly 0 (x + (-x) == 0), then to the target
    (0 + v == v), so the guard sees the exact value.
    """

    weighting = "identity"

    def __init__(self, targets, at):
        super().__init__()
        self.targets, self.at = targets, at
        self.step = 0
        model = self

        class _Drive:
            def apply(self, positions, dw):
                out = np.zeros_like(positions)
                for r, (v, s) in enumerate(zip(model.targets, model.at)):
                    if model.step == s - 1:
                        out[r] = -positions[r]
                    elif model.step == s:
                        out[r] = v
                model.step += 1
                return out

        self.diffusion = _Drive()

    def drift_ensemble(self, theta, positions, stat=None):
        return np.zeros_like(positions)


def test_blowup_guard_edges():
    big = 1e6
    targets = [0.0, np.nan, np.inf, big, big * (1 + 1e-12), -np.inf]
    at = [5, 3, 4, 5, 6, 7]
    model = _DrivenLinear(targets, at)
    seeds = batch_seeds(9, len(targets))
    thetas, _ = draw_initial_thetas(seeds, [1.0, 0.1], [2.0, 0.3])
    # _DrivenLinear has no sigma: its identity weight is given here
    setup = EstimatorSetup("averaged", particles=(0,), schedule=const(1e-12, 1e-12),
                           theta_init=thetas, weight=np.eye(1))
    res = run_batch(model, TruthSchedule.constant([1.0, 0.2]), 3, 0.1, 12, seeds, [setup],
                    record_every=1)
    np.testing.assert_array_equal(res.excluded, [False, True, True, False, True, True])
    np.testing.assert_array_equal(res.blowup_step, [-1, 3, 4, -1, 6, 7])
    # kept replicates carry on; |x| == threshold is still inside the guard
    assert np.all(res.final_positions[3] == big)
    # excluded replicates keep their last finite state and stop updating
    assert np.all(np.isfinite(res.final_positions))
    frozen_theta = res.tracks[0].theta_path
    for r, s in ((1, 3), (2, 4), (4, 6), (5, 7)):
        assert np.all(frozen_theta[s:, r] == frozen_theta[s, r])


def test_every_replicate_blowing_up_stops_early():
    model = _DrivenLinear([np.nan, np.inf], [2, 4])
    seeds = batch_seeds(9, 2)
    res = run_batch(model, TruthSchedule.constant([1.0, 0.2]), 3, 0.1, 50, seeds)
    np.testing.assert_array_equal(res.excluded, [True, True])
    np.testing.assert_array_equal(res.blowup_step, [2, 4])
    assert np.all(np.isfinite(res.final_positions))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_hotpath_parity.py --write")
    data = {}
    for name in sorted(CASES):
        spec, res = run_case(name)
        if "expect" in spec:
            spec["expect"](res)
        data[name] = digests_of(res)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
