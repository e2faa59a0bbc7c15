import contextlib
import copy
import functools
import importlib.util
import io
import json
import operator
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_env
from ipslearn import config as config_module
from ipslearn.batch import ESTIMATOR_KINDS
from ipslearn.cli import main as cli_main
from ipslearn.config import (_KIND_KEYS, ConfigError, bundled_config_names, load_config,
                             parse_config)
from ipslearn.estimators import RmsPropConfig
from ipslearn.models import make_model, weight_matrix
from ipslearn.runner import run_experiment, run_surface, run_sweep


def tiny_config(**overrides):
    cfg = {
        "name": "tiny",
        "model": {"id": "linear", "sigma": 1.0},
        "truth": {"kind": "constant", "values": [1.0, 0.2]},
        "n_particles": 5,
        "dt": 0.1,
        "n_steps": 60,
        "init": {"particles": "standard-normal",
                 "theta_low": [1.5, 0.5], "theta_high": [2.5, 1.0]},
        "estimators": [
            {"kind": "averaged",
             "learning_rate": {"kind": "constant", "gamma0": 1.0, "scale": [0.008, 0.005]}},
            {"kind": "triplet", "triplet": [0, 1, 2],
             "learning_rate": {"kind": "constant", "gamma0": 1.0, "scale": [0.008, 0.005]}},
        ],
        "replicates": 2,
        "base_seed": 5,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# Schema


def test_bundled_fig1_constants():
    c = load_config("linear_fig1")
    assert c.model.model_id == "linear"
    assert c.truth.at(0.0) == pytest.approx([1.0, 0.2])
    assert c.n_particles == 50 and c.n_steps == 10000 and c.dt == 0.1
    for e in c.estimators:  # drawn per replicate from the init box
        assert e.theta_init.shape == (10, 2)
        assert np.all((1.5 <= e.theta_init[:, 0]) & (e.theta_init[:, 0] <= 2.5))
        assert np.all((0.5 <= e.theta_init[:, 1]) & (e.theta_init[:, 1] <= 1.0))
    scales = [e.schedule.scale.tolist() for e in c.estimators]
    assert scales == [[0.008, 0.005], [0.008, 0.005]]
    assert c.replicates == 10


def test_every_bundled_config_parses():
    names = bundled_config_names()
    assert len(names) >= 10
    for n in names:
        c = load_config(n)
        assert c.name == n


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config(tiny_config(extra_knob=1))
    assert "extra_knob" in str(e.value)


def test_a_config_error_survives_pickling():
    # a forked worker sends its errors back pickled
    err = pickle.loads(pickle.dumps(ConfigError("sweep.n_particles", "needs a size")))
    assert type(err) is ConfigError
    assert (err.field, err.message, str(err)) == (
        "sweep.n_particles", "needs a size", "sweep.n_particles: needs a size")


def test_nested_unknown_key_rejected():
    cfg = tiny_config()
    cfg["estimators"][0]["lernrate"] = {}
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert "lernrate" in str(e.value)


def test_degenerate_triplet_rejected():
    cfg = tiny_config()
    cfg["estimators"][1]["triplet"] = [0, 1, 1]
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert "triplet" in str(e.value)


def test_negative_dt_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config(tiny_config(dt=-0.1))
    assert "dt" in str(e.value)


def test_out_of_range_indices_rejected():
    cfg = tiny_config()
    cfg["estimators"][0]["particle"] = 7
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_duplicate_labels_rejected():
    cfg = tiny_config()
    cfg["estimators"][1]["kind"] = "averaged"
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_vol32_requires_eta():
    cfg = tiny_config()
    cfg["model"] = {"id": "vol32"}
    cfg["truth"] = {"kind": "constant", "values": [2.7, 2.3, 1.0]}
    cfg["init"]["theta_low"] = [1.0, 3.5, 0.0]
    cfg["init"]["theta_high"] = [1.5, 4.0, 0.2]
    cfg["estimators"] = [{"kind": "averaged",
                          "learning_rate": {"kind": "constant", "gamma0": 0.01}}]
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert "eta_true" in str(e.value)


def test_weighting_override_accepted_and_applied():
    cfg = tiny_config(model={"id": "linear", "sigma": 2.0})
    cfg["estimators"][0]["weighting"] = "identity"
    setups = parse_config(cfg).estimators
    assert np.array_equal(setups[0].weight, np.eye(1))  # overridden
    # the model's own weight, resolved in config, not left for the run to fill in
    assert np.array_equal(setups[1].weight, weight_matrix(make_model("linear", sigma=2.0)))
    assert setups[1].weight.tolist() == [[0.25]]


def test_weighting_override_rejects_degenerate_inverse():
    cfg = tiny_config()
    cfg["model"] = {"id": "cucker-smale", "sigma": 1.0}
    cfg["truth"] = {"kind": "constant", "values": [0.2, 1.0, 0.5]}
    cfg["init"]["theta_low"] = [0.2, 2.0, 0.5]
    cfg["init"]["theta_high"] = [0.2, 3.0, 0.5]
    cfg["estimators"] = [{
        "kind": "averaged", "weighting": "inverse-diffusion",
        "learning_rate": {"kind": "constant", "gamma0": 0.01},
    }]
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert "degenerate" in str(e.value)


@pytest.mark.parametrize(
    "key, value",
    [("rms_rho", 5), ("rms_rho", 1.0), ("rms_rho", -0.1), ("rms_rho", False),
     ("rms_eps", 0.0), ("rms_eps", -1e-8), ("rms_eps", "small")],
)
def test_rmsprop_settings_out_of_range_rejected(key, value):
    cfg = tiny_config()
    cfg["estimators"][1].update(rmsprop=True, **{key: value})
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert e.value.field == f"estimators[1].{key}"


def test_rmsprop_settings_at_the_edges_accepted():
    cfg = tiny_config()
    cfg["estimators"][1].update(rmsprop=True, rms_rho=0.0, rms_eps=1e-300)
    parsed = parse_config(cfg)
    assert parsed.estimators[1].rmsprop == RmsPropConfig(rho=0.0, eps=1e-300)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as e:
        load_config(bad)
    assert "line" in str(e.value)


# ---------------------------------------------------------------------------
# Runner outputs


def test_run_experiment_outputs_and_idempotence(tmp_path):
    cfg = parse_config(tiny_config(dump_trajectory=True))
    m1 = run_experiment(cfg, tmp_path / "a")
    m2 = run_experiment(cfg, tmp_path / "b")
    assert m1 == m2  # identical manifests => identical content hashes
    a = tmp_path / "a"
    for name in ("estimates_r000.csv", "estimates_r001.csv", "summary.csv",
                 "trajectory_r000.csv", "manifest.json"):
        assert (a / name).exists()
    header = (a / "estimates_r000.csv").read_text().splitlines()[0]
    assert header == "step,time,estimator_id,param,value,frozen"
    header = (a / "trajectory_r000.csv").read_text().splitlines()[0]
    assert header == "step,time,particle,coord,value"
    meta = json.loads((a / "summary.csv.meta.json").read_text())
    assert meta["generator"] == "numpy-philox4x64"
    assert meta["config_hash"] == cfg.content_hash()
    # byte identity across directories
    for name in ("estimates_r000.csv", "summary.csv"):
        assert (a / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_csv_schema(tmp_path):
    cfg = parse_config(tiny_config(sweep={"n_particles": [3, 5]}))
    run_sweep(cfg, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "N,estimator,param,mse,stderr,excluded_count"
    # 2 sizes x 2 estimators x 2 parameters
    assert len(lines) == 1 + 8


def test_surface_csv_schema(tmp_path):
    cfg = parse_config(
        tiny_config(surface={"axes": [[0.8, 1.0], [0.2]], "scan_kind": "L_iN",
                             "horizon_steps": 200, "burn_in_steps": 20})
    )
    run_surface(cfg, tmp_path)
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "theta_1,theta_2,value"
    assert len(lines) == 1 + 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_models(capsys):
    # read from the model classes: vol32 is listed without an eta
    assert cli_main(["--list-models"]) == 0
    assert capsys.readouterr().out == (
        "cucker-smale: p=3 d=2 weighting=identity params=theta1,theta2,theta3\n"
        "double-well: p=3 d=1 weighting=inverse-diffusion params=theta1,theta2,theta3\n"
        "fitzhugh-nagumo: p=4 d=2 weighting=identity params=theta1,theta2,theta3,theta4\n"
        "kuramoto: p=1 d=1 weighting=inverse-diffusion params=theta1\n"
        "linear: p=2 d=1 weighting=inverse-diffusion params=theta1,theta2\n"
        "vol32: p=3 d=1 weighting=identity params=theta1,theta2,theta3\n"
    )


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(dt=-1.0)))
    code = cli_main(["validate", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert "dt" in payload["message"]


def test_cli_validate_reports_schedule_modes(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    assert cli_main(["validate", "--config", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schedules"]["averaged"]["mode"] == "tracking"


def test_cli_estimate_and_overrides(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "out"
    assert cli_main(["estimate", "--config", str(p), "--out", str(out),
                     "--replicates", "1", "--seed", "99"]) == 0
    assert (out / "estimates_r000.csv").exists()
    assert not (out / "estimates_r001.csv").exists()
    meta = json.loads((out / "estimates_r000.csv.meta.json").read_text())
    assert meta["base_seed"] == 99


def test_cli_rms_rho_out_of_range_exits_2(tmp_path, capsys):
    cfg = tiny_config()
    cfg["estimators"][0].update(rmsprop=True, rms_rho=5)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["estimate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    assert "estimators[0].rms_rho" in payload["message"]
    assert not (tmp_path / "o").exists()


# a value of the right type for each field that only some kinds read
KIND_FIELD_VALUES = {"particle": 0, "triplet": [0, 1, 2], "pi": [0, 1, 2],
                     "free_params": [0], "weighting": "identity"}


def test_the_kind_field_table_covers_every_estimator_kind():
    assert tuple(_KIND_KEYS) == ESTIMATOR_KINDS
    assert set().union(*_KIND_KEYS.values()) == set(KIND_FIELD_VALUES)


@pytest.mark.parametrize("kind, fields", [
    # an M-averaged kind also gets the pi it requires
    *((kind, {**({"pi": [0, 1]} if "pi" in own else {}), key: KIND_FIELD_VALUES[key]})
      for kind, own in _KIND_KEYS.items() for key in sorted(set(KIND_FIELD_VALUES) - own)),
    ("averaged", {"rms_rho": 0.9}),
    ("triplet", {"rmsprop": False, "rms_eps": 1e-6}),
], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_estimator_field_of_another_kind_exits_2(tmp_path, capsys, kind, fields):
    # a field the kind never reads is rejected, not silently ignored
    cfg = tiny_config()
    if kind == "diffusion":
        _vol32(cfg)
    est = {"kind": kind, "learning_rate": {"kind": "constant", "gamma0": 0.01}, **fields}
    cfg["estimators"] = [est]
    key = list(fields)[-1]  # the one the kind does not read
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert e.value.field == f"estimators[0].{key}"
    if key in KIND_FIELD_VALUES:
        assert f"kind {kind}" in str(e.value)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["estimate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"estimators[0].{key}:")


def test_estimator_fields_of_their_own_kind_accepted():
    cfg = tiny_config()
    _vol32(cfg)
    cfg["estimators"] = [
        {"kind": "averaged", "particle": 1, "rmsprop": True, "rms_rho": 0.9, "rms_eps": 1e-6,
         "learning_rate": {"kind": "constant", "gamma0": 0.01}},
        {"kind": "triplet", "triplet": [2, 0, 1],
         "learning_rate": {"kind": "constant", "gamma0": 0.01}},
        {"kind": "diffusion", "particle": 2,
         "learning_rate": {"kind": "constant", "gamma0": 0.01}},
    ]
    setups = parse_config(cfg).estimators
    # each setup carries only the index set its kind reads
    assert [s.particles for s in setups] == [(1,), (), (2,)]
    assert [s.triplets for s in setups] == [(), ((2, 0, 1),), ()]
    assert setups[0].rmsprop == RmsPropConfig(0.9, 1e-6)


def _vol32(cfg):
    cfg.update(model={"id": "vol32"}, eta_true=1.0,
               truth={"kind": "constant", "values": [2.7, 2.3, 1.0]})
    cfg["init"].update(theta_low=[1.0, 3.5, 0.0], theta_high=[1.5, 4.0, 0.2],
                       eta_low=0.5, eta_high=1.5)
    cfg["estimators"] = [{"kind": "diffusion",
                          "learning_rate": {"kind": "constant", "gamma0": 0.01}}]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(cfg):
        target = cfg
        for k in path:
            target = target[k]
        target[key] = value
    return mutate


def _both(*mutations):
    def mutate(cfg):
        for m in mutations:
            m(cfg)
    return mutate


NAN, INF = float("nan"), float("inf")
# (config mutation, field named by the error); written to disk as the JSON
# tokens NaN / Infinity / true, as a user's file would carry them
BAD_INPUTS = {
    "n_particles-bool": (_set("n_particles", True), "n_particles"),
    "n_steps-bool": (_set("n_steps", True), "n_steps"),
    "replicates-bool": (_set("replicates", True), "replicates"),
    "base_seed-bool": (_set("base_seed", False), "base_seed"),
    "record_every-bool": (_set("record_every", True), "record_every"),
    "particle-bool": (_set("estimators", 0, "particle", True), "estimators[0].particle"),
    "triplet-bool": (_set("estimators", 1, "triplet", [0, True, 2]), "estimators[1].triplet"),
    "sweep-bool": (_set("sweep", {"n_particles": [3, True]}), "sweep.n_particles"),
    "dt-nan": (_set("dt", NAN), "dt"),
    "dt-inf": (_set("dt", INF), "dt"),
    "gamma0-inf": (_set("estimators", 0, "learning_rate", "gamma0", INF),
                   "estimators[0].learning_rate.gamma0"),
    "gamma0-nan": (_set("estimators", 0, "learning_rate", "gamma0", NAN),
                   "estimators[0].learning_rate.gamma0"),
    "beta-nan": (_set("estimators", 0, "learning_rate",
                      {"kind": "power-law", "gamma0": 1.0, "beta": NAN}),
                 "estimators[0].learning_rate.beta"),
    "eta_true-nan": (_both(_vol32, _set("eta_true", NAN)), "eta_true"),
    "sigma-inf": (_set("model", "sigma", INF), "model.sigma"),
    "sigma-nan": (_set("model", "sigma", NAN), "model.sigma"),
    "tail_fraction-nan": (_set("tail_fraction", NAN), "tail_fraction"),
    "truth-values-nan": (_set("truth", "values", [1.0, NAN]), "truth.values"),
    "truth-values-inf": (_set("truth", "values", [-INF, 0.2]), "truth.values"),
    "truth-switch_time-inf": (
        _set("truth", {"kind": "changepoint", "start": [1.0, 0.2], "end": [1.5, 0.2],
                       "switch_time": INF}), "truth.switch_time"),
    "truth-horizon-nan": (
        _set("truth", {"kind": "ramp", "start": [1.0, 0.2], "end": [1.5, 0.2],
                       "horizon": NAN}), "truth.horizon"),
    "theta_low-nan": (_set("init", "theta_low", [NAN, 0.5]), "init.theta_low"),
    "theta_high-inf": (_set("init", "theta_high", [2.5, INF]), "init.theta_high"),
    "eta_low-nan": (_both(_vol32, _set("init", "eta_low", NAN)), "init.eta_low"),
    "eta_high-inf": (_both(_vol32, _set("init", "eta_high", INF)), "init.eta_high"),
    "bounds-nan": (_both(_set("estimators", 0, "bounds_lower", [0.0, NAN]),
                         _set("estimators", 0, "bounds_upper", [5.0, 5.0])),
                   "estimators[0].bounds_lower"),
    "sigma-zero": (_set("model", "sigma", 0), "model.sigma"),
    "sigma-negative": (_set("model", "sigma", -1.0), "model.sigma"),
    "eta_true-negative": (_both(_vol32, _set("eta_true", -1.0)), "eta_true"),
    "eta-box-reversed": (_both(_vol32, _set("init", "eta_low", 2.0),
                               _set("init", "eta_high", 1.5)), "init.eta_low, init.eta_high"),
    # only a diffusion estimator starts from the eta box, so a box beside
    # linear_fig1's estimators, or beside vol32's minus its diffusion one, is an error
    "eta-box-without-diffusion": (_both(_set("init", "eta_low", 1.5),
                                        _set("init", "eta_high", 2.0)), "init.eta_low"),
    "eta_high-without-diffusion": (_set("init", "eta_high", 2.0), "init.eta_high"),
    "eta-box-vol32-without-diffusion": (
        _both(_vol32, _set("estimators", [{"kind": "averaged", "learning_rate": {
            "kind": "constant", "gamma0": 0.01}}])), "init.eta_low"),
    "dump_trajectory-string": (_set("dump_trajectory", "false"), "dump_trajectory"),
    "rmsprop-string": (_set("estimators", 0, "rmsprop", "no"), "estimators[0].rmsprop"),
    "label-int": (_set("estimators", 0, "label", 7), "estimators[0].label"),
    "label-comma": (_set("estimators", 1, "label", "a,b"), "estimators[1].label"),
    "label-quote": (_set("estimators", 0, "label", 'say "hi"'), "estimators[0].label"),
    "label-newline": (_set("estimators", 1, "label", "a\nb"), "estimators[1].label"),
    "label-cr": (_set("estimators", 0, "label", "a\rb"), "estimators[0].label"),
    "sweep-int": (_set("sweep", 5), "sweep"),
    "surface-int": (_set("surface", 5), "surface"),
    "surface-empty-axis": (_set("surface", {"axes": [[], [0.1]], "horizon_steps": 10}),
                           "surface.axes"),
    "bounds-reversed": (_both(_set("estimators", 0, "bounds_lower", [0.0, 5.0]),
                              _set("estimators", 0, "bounds_upper", [5.0, 0.0])),
                        "estimators[0].bounds_lower, estimators[0].bounds_upper"),
    "bounds_upper-short": (_both(_set("estimators", 0, "bounds_lower", [0.0, 0.0]),
                                 _set("estimators", 0, "bounds_upper", [5.0])),
                           "estimators[0].bounds_upper"),
    "theta_high-short": (_set("init", "theta_high", [2.5]), "init.theta_high"),
    "dt-zero": (_set("dt", 0.0), "dt"),
    "n_steps-zero": (_set("n_steps", 0), "n_steps"),
    "model-id-unknown": (_set("model", "id", "no-such-model"), "model.id"),
    "estimator-kind-unknown": (_set("estimators", 0, "kind", "bogus"), "estimators[0].kind"),
    "gamma0-zero": (_set("estimators", 0, "learning_rate", "gamma0", 0.0),
                    "estimators[0].learning_rate.gamma0"),
    "beta-above-one": (_set("estimators", 0, "learning_rate",
                            {"kind": "power-law", "gamma0": 1.0, "beta": 1.5}),
                       "estimators[0].learning_rate.beta"),
    "lr-kind-unknown": (_set("estimators", 0, "learning_rate", "kind", "cyclic"),
                        "estimators[0].learning_rate.kind"),
    "scale-negative": (_set("estimators", 0, "learning_rate", "scale", [0.008, -1.0]),
                       "estimators[0].learning_rate.scale"),
    "scale-zero": (_set("estimators", 1, "learning_rate", "scale", [0.0, 0.005]),
                   "estimators[1].learning_rate.scale"),
    "pi-empty-averaged_m": (_set("estimators", 0, {"kind": "averaged_m", "pi": [],
                                                   "learning_rate": {"kind": "constant",
                                                                     "gamma0": 1.0}}),
                            "estimators[0].pi"),
    "pi-empty-triplet_m": (_set("estimators", 0, {"kind": "triplet_m", "pi": [],
                                                  "learning_rate": {"kind": "constant",
                                                                    "gamma0": 1.0}}),
                           "estimators[0].pi"),
    "pi-duplicate": (_set("estimators", 0, {"kind": "triplet_m", "pi": [1, 1, 2],
                                            "learning_rate": {"kind": "constant", "gamma0": 1.0}}),
                     "estimators[0].pi"),
    "pi-out-of-range": (_set("estimators", 0, {"kind": "triplet_m", "pi": [0, 9],
                                               "learning_rate": {"kind": "constant",
                                                                 "gamma0": 1.0}}),
                        "estimators[0].pi"),
    "pi-one-index-two-particles": (
        _both(_set("n_particles", 2), _set("estimators", [{
            "kind": "triplet_m", "pi": [0], "learning_rate": {"kind": "constant", "gamma0": 1.0}}])),
        "estimators[0].pi"),
    "pi-one-index-sweep-of-two": (
        _both(_set("sweep", {"n_particles": [2, 5]}), _set("estimators", [{
            "kind": "triplet_m", "pi": [0], "learning_rate": {"kind": "constant", "gamma0": 1.0}}])),
        "estimators[0].pi"),
    "truth-kind-unknown": (_set("truth", {"kind": "sine", "values": [1.0, 0.2]}), "truth.kind"),
    "truth-values-short": (_set("truth", "values", [1.0]), "truth.values"),
    "truth-changepoint-no-end": (
        _set("truth", {"kind": "changepoint", "start": [1.0, 0.2], "switch_time": 1.0}),
        "truth.end"),
    "truth-end-short": (
        _set("truth", {"kind": "changepoint", "start": [1.0, 0.2], "end": [1.0],
                       "switch_time": 1.0}), "truth.end"),
    "truth-end-long": (
        _set("truth", {"kind": "ramp", "start": [1.0, 0.2], "end": [1.5, 0.2, 0.1],
                       "horizon": 5.0}), "truth.end"),
    "truth-horizon-zero": (
        _set("truth", {"kind": "ramp", "start": [1.0, 0.2], "end": [1.5, 0.2],
                       "horizon": 0.0}), "truth.horizon"),
    "surface-scan-kind-unknown": (
        _set("surface", {"axes": [[1.0], [0.2]], "scan_kind": "L_x", "horizon_steps": 20}),
        "surface.scan_kind"),
    "surface-horizon-zero": (_set("surface", {"axes": [[1.0], [0.2]], "horizon_steps": 0}),
                             "surface.horizon_steps"),
    "surface-burn-in-at-horizon": (
        _set("surface", {"axes": [[1.0], [0.2]], "horizon_steps": 10, "burn_in_steps": 10}),
        "surface.burn_in_steps, surface.horizon_steps"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bool_or_non_finite_number_exits_2(tmp_path, capsys, case):
    mutate, field = BAD_INPUTS[case]
    cfg = tiny_config()
    mutate(cfg)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["estimate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"{field}:")
    assert not (tmp_path / "o").exists()


# (subcommand arguments, config mutation, field named by the error): inputs
# that parse as a config but do not fit the subcommand
COMMAND_MISMATCHES = {
    "sweep-no-section": (["sweep"], None, "sweep"),
    "sweep-one-replicate": (["sweep"], _set("sweep", {"n_particles": [3]}), "replicates"),
    "surface-no-section": (["surface"], None, "surface"),
    "surface-changepoint": (
        ["surface"],
        _both(_set("surface", {"axes": [[1.0], [0.2]], "horizon_steps": 20}),
              _set("truth", {"kind": "changepoint", "start": [1.0, 0.2], "end": [1.5, 0.2],
                             "switch_time": 1.0})),
        "truth.kind"),
    "surface-ramp": (
        ["surface"],
        _both(_set("surface", {"axes": [[1.0], [0.2]], "horizon_steps": 20}),
              _set("truth", {"kind": "ramp", "start": [1.0, 0.2], "end": [1.5, 0.2],
                             "horizon": 5.0})),
        "truth.kind"),
    "surface-triplet-two-particles": (
        ["surface"],
        _both(_set("n_particles", 2), _set("estimators", [{
            "kind": "averaged", "learning_rate": {"kind": "constant", "gamma0": 1.0}}]),
              _set("surface", {"axes": [[1.0], [0.2]], "scan_kind": "L_ijkN",
                               "horizon_steps": 20})),
        "surface.scan_kind"),
    "n-small-empty": (["diagnose", "--mode", "coupling", "--n-small"], None, "--n-small"),
    "n-small-zero": (["diagnose", "--mode", "coupling", "--n-small", "0"], None, "--n-small"),
    "n-small-negative": (["diagnose", "--mode", "coupling", "--n-small", "-3"], None,
                         "--n-small"),
    "n-big-zero": (["diagnose", "--mode", "coupling", "--n-small", "3", "--n-big", "0"], None,
                   "--n-big"),
}


@pytest.mark.parametrize("case", sorted(COMMAND_MISMATCHES))
def test_cli_subcommand_config_mismatch_exits_2(tmp_path, capsys, case):
    command, mutate, field = COMMAND_MISMATCHES[case]
    cfg = tiny_config(replicates=1) if field == "replicates" else tiny_config()
    if mutate is not None:
        mutate(cfg)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(command + ["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"{field}:")
    assert not (tmp_path / "o").exists()


def _fields(node, path="", keys=()):
    """(key chain, field path) of every value below `node`.

    An element of a list of numbers or of lists is reported under the list's
    path, which is what its error names.
    """
    if isinstance(node, dict):
        children = [(k, f"{path}.{k}" if path else k) for k in node]
    elif isinstance(node, list):
        children = [(i, f"{path}[{i}]" if isinstance(v, dict) else path)
                    for i, v in enumerate(node)]
    else:
        return []
    out = []
    for key, child in children:
        out.append((keys + (key,), child))
        out.extend(_fields(node[key], child, keys + (key,)))
    return out


def _json_type(v):
    for kind, types in (("bool", bool), ("string", str), ("list", list), ("object", dict)):
        if isinstance(v, types):
            return kind
    return "number"


WRONG_TYPE_VALUES = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "object": st.dictionaries(st.sampled_from(["kind", "values", "x"]), st.integers(), max_size=2),
}
BUNDLED_RAW = {name: load_config(name).raw for name in bundled_config_names()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wrong_json_type_in_a_bundled_config_names_the_field(data):
    cfg = copy.deepcopy(BUNDLED_RAW[data.draw(st.sampled_from(sorted(BUNDLED_RAW)))])
    keys, field = data.draw(st.sampled_from(_fields(cfg)))
    parent = functools.reduce(operator.getitem, keys[:-1], cfg)
    kinds = sorted(set(WRONG_TYPE_VALUES) - {_json_type(parent[keys[-1]])})
    parent[keys[-1]] = data.draw(WRONG_TYPE_VALUES[data.draw(st.sampled_from(kinds))])
    with pytest.raises(ConfigError) as e:
        parse_config(cfg)
    assert e.value.field.startswith(field), (keys, parent[keys[-1]], str(e.value))


def _edge_values(value, n):
    """Wrong values of `value`'s own JSON type; `n` is the config's n_particles."""
    if isinstance(value, bool):
        return []
    if isinstance(value, int):
        return [-1, 0, n, n + 1]
    if isinstance(value, float):
        return [-1.0, 0.0]
    if isinstance(value, list) and value:
        return [value[:-1], value + value[-1:], []]
    return []


def _m_averaged_config():
    cfg = tiny_config()
    for est, pi in zip(cfg["estimators"], ([0, 1, 2, 3], [1, 3])):
        est.pop("triplet", None)
        est.update(kind=est["kind"] + "_m", pi=pi)
    return cfg


# (base config, key chain, field path, value): every edge value of every
# number, integer and list in the bundled configs and in one config with both
# M-averaged kinds
EDGE_BASES = {**BUNDLED_RAW, "m-averaged": _m_averaged_config()}
EDGE_CASES = [
    (name, keys, field, value)
    for name, cfg in sorted(EDGE_BASES.items())
    for keys, field in _fields(cfg)
    for value in _edge_values(functools.reduce(operator.getitem, keys, cfg), cfg["n_particles"])
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(EDGE_CASES))
@example(case=("m-averaged", ("estimators", 0, "pi"), "estimators[0].pi", []))
@example(case=("kuramoto_ramp", ("truth", "end"), "truth.end", []))
@example(case=("doublewell_fig5", ("truth", "values", 0), "truth.values", -1.0))
@example(case=("linear_fig1", ("init", "theta_high", 0), "init.theta_high", -1.0))
def test_wrong_value_in_a_config_exits_0_or_names_the_field(case):
    """A valid config runs, and its summary holds finite estimates on every
    replicate not excluded; an invalid one exits 2 naming the field (a rule
    between two fields, such as lower <= upper, names both).  The one
    exit 1 allowed is the runtime failure of a valid config whose every
    replicate blows up (a double-well truth of -1 does within 5 steps)."""
    name, keys, field, value = case
    cfg = copy.deepcopy(EDGE_BASES[name])
    functools.reduce(operator.getitem, keys[:-1], cfg)[keys[-1]] = value
    cfg["n_steps"] = min(cfg["n_steps"], 5)
    cfg["replicates"] = min(cfg["replicates"], 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["estimate", "--config", str(path), "--out", str(Path(tmp) / "o")])
        if code == 0:
            rows = np.atleast_1d(np.genfromtxt(Path(tmp) / "o" / "summary.csv", delimiter=",",
                                               names=True, dtype=None, encoding="utf-8"))
            kept = rows[rows["excluded"] == 0]
            assert np.isfinite(kept["final"]).all() and np.isfinite(kept["tail_mean"]).all(), case
    message = json.loads(err.getvalue())["message"] if code else ""
    named = message.split(": ", 1)[0].split(", ") if code == 2 else []
    assert (code == 0 or any(n.startswith(field) for n in named)
            or (code == 1 and message == "every replicate blew up; nothing to report")
            ), (case, code, message)


def test_infinite_bounds_accepted():
    cfg = tiny_config()
    cfg["estimators"][0].update(bounds_lower=[-INF, 0.0], bounds_upper=[INF, INF])
    bounds = parse_config(cfg).estimators[0].bounds
    assert bounds.lower.tolist() == [-INF, 0.0]
    assert bounds.upper.tolist() == [INF, INF]


def test_no_bounds_mean_no_box_and_match_an_all_infinite_box(tmp_path):
    # an all-infinite box rejects only a NaN proposal, which the update
    # freezes before any box is read: it writes what no box writes
    boxed = tiny_config()
    for e in boxed["estimators"]:
        e.update(bounds_lower=[-INF, -INF], bounds_upper=[INF, INF])
    assert [e.bounds for e in parse_config(tiny_config()).estimators] == [None, None]
    for run, cfg in (("none", tiny_config()), ("inf", boxed)):
        p = tmp_path / f"{run}.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["estimate", "--config", str(p), "--out", str(tmp_path / run)]) == 0
    written = sorted(f.name for f in (tmp_path / "none").glob("*.csv"))
    assert written == ["estimates_r000.csv", "estimates_r001.csv", "summary.csv"]
    for name in written:
        assert (tmp_path / "none" / name).read_bytes() == (tmp_path / "inf" / name).read_bytes()


@pytest.mark.parametrize("key, value", [("particle", 4), ("triplet", [0, 1, 4]), ("pi", [0, 4])])
def test_estimator_indices_checked_against_every_sweep_size(tmp_path, capsys, key, value):
    # index 4 exists at N = 5 but not in the sweep's N = 4
    cfg = tiny_config(sweep={"n_particles": [4, 5]})
    kind = {"particle": "averaged", "triplet": "triplet", "pi": "averaged_m"}[key]
    cfg["estimators"][1].pop("triplet")  # only valid for the triplet kind
    cfg["estimators"][1].update(kind=kind, label="probe", **{key: value})
    parsed = parse_config({**cfg, "sweep": {"n_particles": [5, 6]}})
    assert parsed.sweep_n_particles == [5, 6]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"estimators[1].{key}:")
    assert "N=4" in payload["message"]


@pytest.mark.parametrize(
    "flag, value, field", [("--replicates", "0", "replicates"), ("--seed", "-1", "base_seed")]
)
def test_cli_overrides_are_validated(tmp_path, capsys, flag, value, field):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    for command in ("estimate", "validate"):
        assert cli_main([command, "--config", str(p), "--out", str(tmp_path / "o"),
                         flag, value]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "validation"
        assert payload["message"].startswith(f"{field}:")


def test_cli_override_hash_matches_an_edited_config(tmp_path):
    # an override must leave the same artifacts as writing the value into the file
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    edited = tmp_path / "e.json"
    edited.write_text(json.dumps(tiny_config(base_seed=99, replicates=1)))
    assert cli_main(["estimate", "--config", str(p), "--out", str(tmp_path / "a"),
                     "--replicates", "1", "--seed", "99"]) == 0
    assert cli_main(["estimate", "--config", str(edited), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()


def test_cli_overrides_parse_the_config_once(tmp_path, monkeypatch):
    # the overrides go into the one load: the file is read and parsed once,
    # so the initial estimates are drawn once
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config_module, "draw_initial_thetas",
                        counted("draw", config_module.draw_initial_thetas))
    monkeypatch.setattr("ipslearn.cli.load_config", counted("load", load_config))
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["validate", "--config", str(p), "--seed", "99",
                         "--replicates", "1"]) == 0
    assert calls == ["load", "draw"]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second; only the CLT diagnostic needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ipslearn.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_starts_no_thread_and_the_pool_lets_the_process_exit():
    # the Cucker-Smale pool costs nothing until a call has 2 chunks, its idle
    # threads do not hold up exit, and a forked child starts its own pool
    code = """
import os, sys, threading
import numpy as np
import ipslearn.cli
from ipslearn import models
print(threading.active_count(), "concurrent.futures" in sys.modules)
models._WORKERS = 2
m, th = models.make_model("cucker-smale"), np.array([0.4, 1.3, 0.5])
pos = np.random.default_rng(0).standard_normal((1, 500, 2))
m.drift_ensemble(th, pos[:, :50])
print(threading.active_count())
want = m.drift_ensemble(th, pos)
print(threading.active_count())
pid = os.fork()
if pid == 0:
    os._exit(0 if m.drift_ensemble(th, pos).tobytes() == want.tobytes() else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False", "1", "2", "0"]


def test_cli_simulate_writes_trajectories_only(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "trajectory_r000.csv").exists()
    assert not (out / "estimates_r000.csv").exists()


def _vol32_blowup_config(tmp_path, **overrides):
    cfg = {**load_config("vol32").raw, "eta_true": 2.0, "n_particles": 10, "replicates": 3,
           "n_steps": 200, "base_seed": 3, **overrides}
    del cfg["sweep"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_cli_dumps_a_partial_blowup_up_to_its_last_recorded_step(tmp_path, capsys, command):
    # replicates 1 and 2 blow up at steps 98 and 9; replicate 0 runs all 200 steps
    out = tmp_path / "o"
    config = _vol32_blowup_config(tmp_path, dump_trajectory=True)
    assert cli_main([command, "--config", config, "--out", str(out)]) == 0, capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    names = {a["name"] for a in manifest["artifacts"]}
    assert {f"trajectory_r{r:03d}.csv" for r in range(3)} <= names
    for r, last_step in ((0, 190), (1, 90), (2, 0)):
        rows = (out / f"trajectory_r{r:03d}.csv").read_text().splitlines()[1:]
        assert len(rows) == (last_step // 10 + 1) * 10  # 10 particles, d = 1
        assert rows[-1].startswith(f"{last_step},")
        assert all(np.isfinite(float(row.split(",")[-1])) for row in rows)
        side = json.loads((out / f"trajectory_r{r:03d}.csv.meta.json").read_text())
        assert side.get("blowup_step") == {1: 98, 2: 9}.get(r)
    if command == "estimate":
        rows = [row.split(",") for row in (out / "summary.csv").read_text().splitlines()[1:]]
        excluded = {row[0]: row[-2:] for row in rows}
        assert excluded == {"0": ["0", "-1"], "1": ["1", "98"], "2": ["1", "9"]}


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_cli_fails_when_every_replicate_blows_up(tmp_path, capsys, command):
    # eta 1.5 at dt 0.2: seeds 1, 2 and 3 blow up at steps 7, 53 and 5
    out = tmp_path / "o"
    config = _vol32_blowup_config(tmp_path, eta_true=1.5, dt=0.2, n_steps=500, base_seed=1,
                                  dump_trajectory=True)
    assert cli_main([command, "--config", config, "--out", str(out)]) == 1
    assert "every replicate blew up" in json.loads(capsys.readouterr().err)["message"]
    assert not (out / "manifest.json").exists()


def test_cli_diagnose_moments(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "diag"
    assert cli_main(["diagnose", "--config", str(p), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"manifest": str(out / "manifest.json"),
                                                   "artifacts": 2}
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "step,time,order,value"


def test_cli_diagnose_moments_keeps_the_series_up_to_a_blowup(tmp_path, capsys):
    # eta 1.5 at dt 0.2: seed 2 blows up at step 53, so a 53-step run is clean
    blown, clean = tmp_path / "blown", tmp_path / "clean"
    config = _vol32_blowup_config(tmp_path, eta_true=1.5, dt=0.2, n_steps=500, base_seed=2)
    assert cli_main(["diagnose", "--config", config, "--out", str(blown)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "runtime",
                   "message": "|x| exceeded 1e+06 or became non-finite at step 53"}
    assert not (blown / "manifest.json").exists()
    config = _vol32_blowup_config(tmp_path, eta_true=1.5, dt=0.2, n_steps=53, base_seed=2)
    assert cli_main(["diagnose", "--config", config, "--out", str(clean)]) == 0
    csv_bytes = (blown / "moments.csv").read_bytes()
    assert csv_bytes == (clean / "moments.csv").read_bytes()
    assert len(csv_bytes.splitlines()) == 1 + 2 * 53  # header, orders 2 and 4
    side = json.loads((blown / "moments.csv.meta.json").read_text())
    assert side["blowup_step"] == 53
    assert "blowup_step" not in json.loads((clean / "moments.csv.meta.json").read_text())


def test_cli_diagnose_coupling(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config()))
    out = tmp_path / "diag"
    assert cli_main(["diagnose", "--config", str(p), "--out", str(out),
                     "--mode", "coupling", "--n-small", "3", "--n-big", "10"]) == 0
    lines = (out / "coupling.csv").read_text().splitlines()
    assert lines[0] == "step,time,n_small,n_big,mean_sq_distance"


def test_cli_entrypoint_via_subprocess(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_config(replicates=1)))
    proc = subprocess.run(
        [sys.executable, "-m", "ipslearn.cli", "estimate",
         "--config", str(p), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["artifacts"] > 0


def test_reproduce_script_exits_2_on_an_unknown_config(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_experiments.py"
    proc = subprocess.run(
        [sys.executable, str(path), "--only", "no_such_config", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    # the CLI's error line
    payload = json.loads(proc.stderr)
    assert payload["error"] == "validation"
    assert payload["message"].startswith("<file>:")
    assert not (tmp_path / "o").exists()


def _reproduce_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_experiments.py"
    spec = importlib.util.spec_from_file_location("reproduce_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_script_routes_each_config_through_the_cli(tmp_path, monkeypatch):
    script = _reproduce_script()
    monkeypatch.chdir(tmp_path)
    Path("path.json").write_text(json.dumps(tiny_config(sweep={"n_particles": [3]})))
    surface = {"axes": [[1.0], [0.2]], "horizon_steps": 10}
    Path("surface.json").write_text(json.dumps(tiny_config(surface=surface)))
    calls, codes = [], []

    def fake_main(argv):
        calls.append(argv)
        return codes.pop(0) if codes else 0

    monkeypatch.setattr(script.cli, "main", fake_main)

    def expected(command, name, out):
        return [command, "--config", name, "--out", str(Path("r") / out)]

    only = ["--out", "r", "--only", "path.json", "surface.json"]
    assert script.main(only) == 0
    assert calls == [expected("estimate", "path.json", "path"),
                     expected("surface", "surface.json", "surface")]
    calls.clear()
    assert script.main(only + ["--with-sweeps"]) == 0
    assert calls == [expected("estimate", "path.json", "path"),
                     expected("sweep", "path.json", "path_sweep"),
                     expected("surface", "surface.json", "surface")]
    # the first non-zero code ends the run and is the script's exit code
    calls.clear()
    codes[:] = [0, 3, 1]
    assert script.main(only + ["--with-sweeps"]) == 3
    assert [argv[0] for argv in calls] == ["estimate", "sweep"]


@pytest.mark.parametrize("absolute", [True, False])
def test_reproduce_script_names_run_directories_after_the_config_stem(absolute, tmp_path,
                                                                       monkeypatch):
    # a config path given to --only names its runs by its stem, so an absolute
    # path cannot make `--out / path` the config file itself
    monkeypatch.chdir(tmp_path)
    Path("cfg").mkdir()
    config = Path("cfg") / "c.json"
    config.write_text(json.dumps(tiny_config(sweep={"n_particles": [3]})))
    name = str(config.resolve() if absolute else config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = _reproduce_script().main(["--out", "r", "--only", name, "--with-sweeps"])
    assert code == 0
    assert sorted(p.name for p in Path("r").iterdir()) == ["c", "c_sweep"]
    assert (Path("r") / "c" / "manifest.json").is_file()
    assert (Path("r") / "c_sweep" / "sweep.csv").is_file()


def test_a_parsed_config_can_be_run_again(tmp_path):
    # the parsed estimator setups, arrays included, are shared by every run
    # and every sweep size; no run may change them
    cfg = tiny_config(sweep={"n_particles": [3, 4]}, record_every=10)
    _vol32(cfg)
    cfg["dt"] = 0.01
    cfg["estimators"] = [
        {"kind": "averaged", "free_params": [0, 2], "rmsprop": True,
         "bounds_lower": [0.0, 0.0, 0.0], "bounds_upper": [5.0, 5.0, 5.0],
         "learning_rate": {"kind": "constant", "gamma0": 0.01, "scale": [1.0, 0.5, 2.0]}},
        {"kind": "triplet", "weighting": "identity",
         "learning_rate": {"kind": "power-law", "gamma0": 0.01, "beta": 0.75}},
        {"kind": "diffusion", "bounds_lower": [0.1], "bounds_upper": [3.0],
         "learning_rate": {"kind": "constant", "gamma0": 0.01, "scale": [0.5]}},
    ]
    config = parse_config(cfg)
    before = copy.deepcopy(config.estimators)
    for run in ("a", "b"):
        run_experiment(config, tmp_path / run)
        run_sweep(config, tmp_path / run / "sweep")
    for name in ("manifest.json", "summary.csv", "estimates_r001.csv", "sweep/sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for was, now in zip(before, config.estimators):
        for key in ("theta_init", "free_mask", "weight"):
            assert np.array_equal(getattr(was, key), getattr(now, key))
        assert (was.bounds is None) == (now.bounds is None)  # the triplet has no box
        if was.bounds is not None:
            assert np.array_equal(was.bounds.lower, now.bounds.lower)
            assert np.array_equal(was.bounds.upper, now.bounds.upper)
        assert np.array_equal(was.schedule.scale, now.schedule.scale)
        assert was.rmsprop == now.rmsprop
