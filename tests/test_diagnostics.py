import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from ipslearn.batch import EstimatorSetup, batch_seeds, run_batch
from ipslearn.cli import main as cli_main
from ipslearn.config import load_config, parse_config
from ipslearn.diagnostics import coupling_distance, l2_error_sweep, standardized_moments
from ipslearn.estimators import LearningRateSchedule, averaged_gradient, triplet_gradient
from ipslearn.models import TruthSchedule, Vol32Model, make_model, weight_matrix
from ipslearn.runner import run_experiment, run_sweep
from ipslearn.sde import run_trajectory
from oracles import poc_rate, rate_function_a, rho_rate


# ---------------------------------------------------------------------------
# Rate functions


def test_rho_branch_values():
    assert rho_rate(16, 2) == pytest.approx(0.5, abs=0)
    assert rho_rate(16, 4) == pytest.approx(16**-0.25 * np.sqrt(np.log(17.0)), rel=1e-12)
    assert rho_rate(32, 5) == pytest.approx(32 ** (-1 / 5), rel=1e-12)


def test_rho_nonincreasing_in_n():
    # the d = 4 branch carries a sqrt(log(1+N)) factor that makes the rate
    # rise until N ~ 4; beyond that bump every branch decays monotonically
    for d in (1, 2, 3, 4, 5, 8):
        start = 5 if d == 4 else 1
        ns = np.unique(np.logspace(np.log10(start), 6, 200).astype(int))
        vals = [rho_rate(int(n), d) for n in ns]
        assert np.all(np.diff(vals) <= 0)


def test_poc_rate_value():
    assert poc_rate(16, 1.0) == pytest.approx(16**-0.25, abs=0)
    assert poc_rate(100, 0.0) == pytest.approx(0.1, rel=1e-12)


def test_rate_function_a_values():
    assert rate_function_a(0.0, 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=0)
    assert rate_function_a(2.0, 1.0, 0.0, 1.0, 1.0) == pytest.approx(np.exp(-4.0), rel=1e-12)
    # t = 0 with alpha > 0 reduces to x^2
    assert rate_function_a(0.0, 3.0, 0.7, 2.0) == pytest.approx(9.0, rel=1e-12)


def test_rate_function_a_decreasing_in_t():
    for alpha in (0.0, 0.5, 2.0):
        ts = np.linspace(0, 5, 30)
        vals = [rate_function_a(t, 2.0, alpha, 1.3) for t in ts]
        assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# Coupling distance


def test_coupling_identical_sizes_is_zero():
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    (series,) = coupling_distance(m, truth, [8], 8, 0.1, 100, seed=4)
    assert np.all(series == 0.0)


def test_coupling_zero_noise_pure_interaction_stays_zero(start_at):
    # all particles start at the same point; a pure-interaction drift keeps
    # both deterministic systems glued together
    m = make_model("linear", sigma=0.0)
    truth = TruthSchedule.constant([0.0, 0.7])
    start_at(0.9)
    (series,) = coupling_distance(m, truth, [5], 30, 0.1, 200, seed=5)
    assert np.all(series == 0.0)


def test_coupling_distance_positive_for_finite_sizes():
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    (series,) = coupling_distance(m, truth, [5], 100, 0.1, 500, seed=6)
    # shared initial conditions: after one step only the drift difference
    # (order dt^2 in squared distance) has accumulated
    assert 0 < series[0] < 1e-3
    assert series[100:].mean() > series[0]


def test_coupling_runs_the_big_system_once_and_matches_a_run_per_size(monkeypatch):
    # reference: both systems run for each size, the distance taken step by step
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    sizes, n_big, n_steps = (3, 7, 5), 12, 40
    want = []
    for n in sizes:
        paths = [np.array([run_trajectory(m, truth, size, 0.1, k + 1, 9)[:n]
                           for k in range(n_steps)]) for size in (n, n_big)]
        want.append([np.mean(np.sum(d**2, axis=1)) for d in paths[0] - paths[1]])
    calls = []
    monkeypatch.setattr("ipslearn.diagnostics.run_trajectory",
                        lambda *a, **kw: calls.append(a[2]) or run_trajectory(*a, **kw))
    got = coupling_distance(m, truth, sizes, n_big, 0.1, n_steps, 9)
    assert got.tobytes() == np.array(want).tobytes()
    assert sorted(calls) == [3, 5, 7, 12]


# Log-log slopes of the coupling distance against N for seeds 0-5 of the
# test below: -1.06, -0.97, -1.02, -1.08, -1.00, -0.83 (mean -0.99, sd 0.087).
COUPLING_SLOPE_SD = 0.087


def test_coupling_distance_falls_at_the_propagation_of_chaos_rate():
    # The squared coupling distance of the linear model (alpha = 0) should
    # fall as poc_rate(N, 0)^2 = N^-1 (Cattiaux et al. 2008).  Tolerances
    # are sized from the committed spread: every seed within 3 sd of the
    # rate, their mean within 3 standard errors of the mean, and a spread
    # at most twice the committed one.
    c = load_config("linear_fig1")
    ns = np.array([5, 10, 20, 40, 80])
    rate = np.polyfit(np.log(ns), np.log([poc_rate(n, 0.0) ** 2 for n in ns]), 1)[0]
    assert rate == pytest.approx(-1.0, abs=1e-12)
    seeds = range(6)
    slopes = np.array([
        np.polyfit(np.log(ns), np.log(
            coupling_distance(c.model, c.truth, tuple(ns), 500, c.dt, 2000, seed)[:, 1000:]
            .mean(axis=1)), 1)[0]
        for seed in seeds
    ])
    shown = ", ".join(f"{s:.3f}" for s in slopes)
    assert np.all(np.abs(slopes - rate) <= 3 * COUPLING_SLOPE_SD), shown
    assert abs(slopes.mean() - rate) <= 3 * COUPLING_SLOPE_SD / np.sqrt(len(seeds)), shown
    assert slopes.std(ddof=1) <= 2 * COUPLING_SLOPE_SD, shown


# Log-log slopes of the squared gradient gap against N for seeds 0-5 of the
# test below: averaged -1.051, -0.989, -1.103, -1.075, -0.983, -0.954 (mean
# -1.026, sd 0.059); triplet -1.098, -0.910, -1.049, -1.145, -0.982, -0.892
# (mean -1.013, sd 0.102).
GRADIENT_GAP_SLOPE_SD = {"averaged": 0.059, "triplet": 0.102}


def test_gradient_gap_falls_at_least_as_fast_as_the_paper_bound():
    # On the coupled systems of the test above, particle 0's averaged
    # gradient and the (0, 1, 2) triplet gradient at a fixed theta off the
    # truth differ between N and n_big = 500 particles by at most
    # rho(N) + N^(-1/(2(1+alpha))) (linear model: d = 1, alpha = 0).  The
    # bound is an upper bound, so the squared gap must fall at least as fast
    # as its square, within the committed spread of the slopes.
    c = load_config("linear_fig1")
    m, dt, n_steps = c.model, c.dt, 2000
    W = weight_matrix(m)
    theta = np.array([2.0, 0.75])  # the middle of the init box
    ns = np.array([5, 10, 20, 40, 80])
    bound = np.polyfit(np.log(ns), np.log([(rho_rate(n, 1) + poc_rate(n, 0.0)) ** 2
                                           for n in ns]), 1)[0]
    assert bound == pytest.approx(-0.661, abs=1e-3)

    def gradients(n, seed):
        out = np.empty((2, n_steps, m.p))  # averaged, triplet

        class Gradients:
            def on_step(self, step, t, positions, dx, stat, keep):
                pos, dx0 = positions[0], dx[0, 0]
                out[0, step] = averaged_gradient(m, theta, pos[0], pos, dx0, dt, W)
                out[1, step] = triplet_gradient(m, theta, pos[0], pos[1], pos[2], dx0, dt, W)

        run_trajectory(m, c.truth, n, dt, n_steps, seed, observers=[Gradients()])
        return out

    seeds = range(6)
    slopes = []
    for seed in seeds:
        big = gradients(500, seed)
        gaps = [np.sum((gradients(n, seed) - big) ** 2, axis=2)[:, 1000:].mean(axis=1)
                for n in ns]
        slopes.append(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    for (kind, sd), s in zip(GRADIENT_GAP_SLOPE_SD.items(), np.array(slopes).T):
        shown = f"{kind}: " + ", ".join(f"{v:.3f}" for v in s)
        assert np.all(s <= bound + 3 * sd), shown
        assert s.mean() <= bound + 3 * sd / np.sqrt(len(seeds)), shown
        assert s.std(ddof=1) <= 2 * sd, shown


def diagnose_error(tmp_path, capsys, *args):
    """The error message of an `ipslearn diagnose` run that must exit 2 and
    leave no output directory."""
    out = tmp_path / "o"
    assert cli_main(["diagnose", "--out", str(out), *args]) == 2
    assert not out.exists()
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    return payload["message"]


def test_coupling_requires_ordered_sizes(tmp_path, capsys):
    message = diagnose_error(tmp_path, capsys, "--config", "linear_fig1", "--mode", "coupling",
                             "--n-small", "10", "--n-big", "5")
    assert message.startswith("--n-small:")


# ---------------------------------------------------------------------------
# Error sweep


def _linear_setups(thetas, truth):
    sched = LearningRateSchedule("constant", 1.0, scale=np.array([8e-3, 5e-3]))
    m = make_model("linear")
    return [
        EstimatorSetup(kind=kind, schedule=sched, theta_init=thetas, weight=weight_matrix(m),
                       param_names=m.param_names, truth=truth, **indices)
        for kind, indices in (("averaged", {"particles": (0,)}),
                              ("triplet", {"triplets": ((0, 1, 2),)}))
    ]


def test_sweep_deterministic_given_ladder():
    m = make_model("linear")
    truth = TruthSchedule.constant([1.0, 0.2])
    thetas = np.array([2.0, 0.75])
    first, second = [
        l2_error_sweep(m, truth, [3, 5], 0.1, 300, 3, _linear_setups(thetas, truth), 42)
        for _ in range(2)
    ]
    # 2 sizes x 2 estimators x 2 parameters
    assert [len(col) for col in first] == [8] * 6
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_sweep_surfaces_exclusions():
    # an explosive confinement makes every replicate blow up at some N;
    # exclusions must be counted, not silently dropped
    m = make_model("linear", sigma=0.1)
    truth = TruthSchedule.constant([-4.0, 0.0])
    thetas = np.array([1.0, 0.2])
    with pytest.raises(RuntimeError):
        l2_error_sweep(m, truth, [3], 0.1, 500, 3, _linear_setups(thetas, truth), 7)


# the switch at t = 1000 lies after the last step of a 2000-step run of dt
# 0.1: both files score the tail mean against the truth the run saw last
# (the start value), not against a later one
LATE_SWITCH = {
    "name": "late-switch",
    "model": {"id": "linear", "sigma": 1.0},
    "truth": {"kind": "changepoint", "start": [1.0, 0.2], "end": [3.0, 0.2],
              "switch_time": 1000.0},
    "n_particles": 5, "dt": 0.1, "n_steps": 2000,
    "init": {"theta_low": [1.5, 0.5], "theta_high": [2.5, 1.0]},
    "estimators": [{"kind": "averaged", "free_params": [0],
                    "learning_rate": {"kind": "constant", "gamma0": 1.0,
                                      "scale": [0.008, 0.005]}}],
    "replicates": 4, "base_seed": 5, "sweep": {"n_particles": [5]},
}
# both files score the diffusion estimator's one parameter against the true
# eta, not against the drift truth
VOL32_DIFFUSION = {
    "name": "vol32-diffusion",
    "model": {"id": "vol32"},
    "truth": {"kind": "constant", "values": [2.7, 2.3, 1.0]},
    "eta_true": 0.7,
    "n_particles": 5, "dt": 0.045, "n_steps": 200,
    "init": {"theta_low": [1.0, 3.5, 0.0], "theta_high": [1.5, 4.0, 0.2],
             "eta_low": 1.5, "eta_high": 2.0},
    "estimators": [
        {"kind": "averaged",
         "learning_rate": {"kind": "constant", "gamma0": 1.0, "scale": [0.01, 0.01, 0.05]}},
        {"kind": "diffusion", "learning_rate": {"kind": "constant", "gamma0": 0.01}},
    ],
    "replicates": 4, "base_seed": 3, "sweep": {"n_particles": [5]},
}


@pytest.mark.parametrize("cfg, params, first_mse_below", [
    (LATE_SWITCH, {"averaged": ["theta1", "theta2"]}, 0.5),  # 2.08 against the end value
    (VOL32_DIFFUSION, {"averaged": ["theta1", "theta2", "theta3"], "diffusion": ["eta1"]}, None),
], ids=["late-switch", "vol32-diffusion"])
def test_sweep_and_summary_score_against_the_same_final_truth(cfg, params, first_mse_below,
                                                              tmp_path):
    config = parse_config(cfg)
    run_experiment(config, tmp_path / "estimate")
    run_sweep(config, tmp_path / "sweep")
    with open(tmp_path / "estimate" / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert [(row["estimator"], row["param"]) for row in sweep] == [
        (label, str(k)) for label, names in params.items() for k in range(len(names))]
    for row in sweep:
        name = params[row["estimator"]][int(row["param"])]
        sq = [float(s["sq_error_truth"]) for s in summary
              if s["estimator_id"] == row["estimator"] and s["param"] == name]
        assert len(sq) == 4
        assert float(row["mse"]) == pytest.approx(np.mean(sq), rel=1e-12)
    if first_mse_below is not None:
        assert float(sweep[0]["mse"]) < first_mse_below


def test_run_batch_flags_partial_blowups():
    # vol32 near the Euler stability edge: some replicates explode, the rest
    # carry on; flags carry the step index
    m = make_model("vol32", eta=1.0)
    truth = TruthSchedule.constant([2.7, 2.3, 1.0])
    res = run_batch(m, truth, 3, 0.2, 500, batch_seeds(1, 12), [])
    n_excl = int(res.excluded.sum())
    assert 0 < n_excl < 12
    assert np.all(res.blowup_step[res.excluded] >= 0)
    assert np.all(res.blowup_step[~res.excluded] == -1)
    assert np.all(np.isfinite(res.final_positions[~res.excluded]))


def test_summary_csv_reports_exclusions(tmp_path):
    # the setting of test_run_batch_flags_partial_blowups, run through
    # `estimate`: excluded replicates are flagged with their blow-up step and
    # left out of the pooled centre
    config = parse_config({
        "name": "vol32-partial-blowup",
        "model": {"id": "vol32"},
        "truth": {"kind": "constant", "values": [2.7, 2.3, 1.0]},
        "eta_true": 1.0,
        "n_particles": 3, "dt": 0.2, "n_steps": 500,
        "init": {"theta_low": [2.0, 2.0, 0.5], "theta_high": [3.0, 2.5, 1.5],
                 "eta_low": 0.5, "eta_high": 1.5},
        "estimators": [
            {"kind": "averaged", "learning_rate": {"kind": "constant", "gamma0": 1e-3}},
            {"kind": "diffusion", "learning_rate": {"kind": "constant", "gamma0": 1e-3}},
        ],
        "replicates": 12, "base_seed": 1, "record_every": 100,
    })
    run_experiment(config, tmp_path)
    res = run_batch(config.model, config.truth, 3, 0.2, 500, batch_seeds(1, 12), [])
    ok = ~res.excluded
    assert 0 < res.excluded.sum() < 12
    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    for label, p in (("averaged", 3), ("diffusion", 1)):
        mine = [r for r in rows if r["estimator_id"] == label]
        assert len(mine) == 12 * p

        def column(name, cast):
            return np.array([cast(r[name]) for r in mine]).reshape(12, p)

        assert np.array_equal(column("replicate", int), np.repeat(np.arange(12)[:, None], p, 1))
        assert np.array_equal(column("excluded", int), np.repeat(res.excluded[:, None], p, 1))
        assert np.array_equal(column("blowup_step", int),
                              np.repeat(res.blowup_step[:, None], p, 1))
        tail = column("tail_mean", float)
        assert np.all(np.isfinite(tail))
        centre = tail[ok].mean(axis=0)
        assert not np.array_equal(centre, tail.mean(axis=0))  # exclusion matters
        assert np.array_equal(column("sq_error_pooled", float), (tail - centre) ** 2)


# at a constant rate of 1000 the averaged estimate ends at theta1 = 1.7e301,
# 3.0e246 and -5.3e307 (frozen) on the three replicates, none of which blows
# up; every squared error overflows to inf
DIVERGING = {
    **load_config("linear_fig1").raw,
    "n_particles": 5, "dt": 0.1, "n_steps": 200, "replicates": 3, "base_seed": 303,
    "estimators": [{"kind": "averaged", "learning_rate": {"kind": "constant", "gamma0": 1000.0}}],
    "sweep": {"n_particles": [5]},
}


@pytest.mark.parametrize("command, where", [("estimate", ""), ("sweep", " at N=5")])
def test_a_diverging_estimator_exits_1_naming_it_and_the_replicate(tmp_path, capsys,
                                                                   command, where):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(DIVERGING))
    out = tmp_path / "o"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "runtime", "message": f"estimator 'averaged' diverged{where}: "
                       "replicate 0 has a non-finite squared error against the truth"}
    assert list(out.iterdir()) == []  # no artifact written


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_a_diverging_run_writes_only_its_json_error_to_stderr(tmp_path, command):
    # in a fresh process, where numpy's overflow warning would reach stderr
    path = tmp_path / "c.json"
    path.write_text(json.dumps(DIVERGING))
    proc = subprocess.run(
        [sys.executable, "-m", "ipslearn.cli", command,
         "--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert json.loads(proc.stderr)["error"] == "runtime"


# ---------------------------------------------------------------------------
# Rescaled-error moments


def test_standardized_moments_gaussian_sanity():
    rng = np.random.default_rng(0)
    s = standardized_moments(rng.standard_normal((100000, 2)))
    assert s.skewness == pytest.approx([0.0, 0.0], abs=0.05)
    assert s.excess_kurtosis == pytest.approx([0.0, 0.0], abs=0.1)
    assert s.variance == pytest.approx([1.0, 1.0], rel=0.02)


def test_clt_rejects_constant_schedule(tmp_path, capsys):
    # linear_fig1's first estimator has a constant learning rate
    message = diagnose_error(tmp_path, capsys, "--config", "linear_fig1", "--mode", "clt",
                             "--replicates", "200")
    assert message.startswith("estimators[0].learning_rate:")


def test_clt_rejects_too_few_replicates(tmp_path, capsys):
    message = diagnose_error(tmp_path, capsys, "--config", "linear_clt", "--mode", "clt",
                             "--replicates", "199")
    assert message.startswith("replicates:")


def test_clt_names_a_diffusion_estimator_by_eta(tmp_path):
    raw = load_config("vol32").raw
    cfg = {**raw, "n_particles": 5, "n_steps": 20, "replicates": 200, "estimators": [
        {"kind": "diffusion", "learning_rate": {"kind": "power-law", "gamma0": 0.01,
                                                "beta": 0.75}}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli_main(["diagnose", "--config", str(path), "--mode", "clt", "--out", str(out)]) == 0
    with open(out / "clt.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["param"] for r in rows] == list(Vol32Model.eta_names)
