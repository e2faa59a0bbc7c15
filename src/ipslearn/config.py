"""Experiment configuration: a strict JSON schema and its loader.

Unknown keys are rejected everywhere so a typo cannot silently fall back to
a default.  A config captures one fully reproducible run: model, truth
schedule, discretisation, initial laws, estimators, replicate count, and
the base seed.  The model is built here, once; the top-level `eta_true` is
the `eta` argument of a model with diffusion parameters (`eta_names`).

Each estimator is parsed straight into a complete `batch.EstimatorSetup`:
schedule, bounds box, float 0/1 free mask, RMSProp settings, weight matrix
(the model's, or the `weighting` override; None for diffusion), indices,
parameter names, scoring truth and per-replicate initial estimates are
resolved here, once, and no later module fills anything in or branches on
the kind.  One table, `_KIND_KEYS`, names the fields each kind reads beyond
the common ones; any other field is rejected, and so is an eta init box
when no diffusion estimator runs.  Only the index field the kind reads is
parsed, and one rule checks every index set (distinct, at least one, in
range): `particles` is `(particle,)` or the sorted Pi, `triplets` is
`(triplet,)` or C(Pi), and a setup gets only the one its kind reads.  A
drift estimator without bounds gets no box (`bounds` None: no bound
check); a diffusion estimator without bounds gets the model's eta box.  A
drift estimator is scored against the config's truth, the diffusion
estimator against the model's eta.

The initial estimates are drawn from each replicate's seed
(`batch.draw_initial_thetas`): every drift estimator of a replicate starts
from the same sample of the theta box, with any pinned coordinate at the
truth at time zero, and the diffusion estimator from the eta box.

A rule between two fields (lower <= upper, burn-in < horizon) names both.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .batch import ESTIMATOR_KINDS, EstimatorSetup, batch_seeds, draw_initial_thetas
from .estimators import LearningRateSchedule, RmsPropConfig, build_cyclic_triplets
from .models import MODEL_ZOO, Box, InteractionModel, TruthSchedule, make_model, weight_matrix


class ConfigError(ValueError):
    """Validation failure; `field` names the offending entry.  It survives
    pickling, so a forked worker's ConfigError exits 2 as inline."""

    def __init__(self, field_name, message):
        self.field = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        return ConfigError, (self.field, self.message)


def _path(ctx, key):
    """Field path of `key` inside `ctx`; top-level fields have an empty ctx."""
    return f"{ctx}.{key}" if ctx else key


def _typed(v, ctx, types):
    """`v` if it has the JSON type `types`; a bool passes only as `bool`."""
    if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
        raise ConfigError(ctx, f"expected {types.__name__}, got {type(v).__name__}")
    return v


def _require(d, key, ctx, types=None):
    if key not in d:
        raise ConfigError(_path(ctx, key), "missing required field")
    return d[key] if types is None else _typed(d[key], _path(ctx, key), types)


def _check_keys(d, allowed, ctx, why="unknown field"):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(_path(ctx, sorted(unknown)[0]), why)


def _int(v, ctx):
    return _typed(v, ctx, int)


def _float(v, ctx, infinite_ok=False):
    """A JSON number as a float; NaN is always rejected, +-inf unless `infinite_ok`."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(ctx, f"expected a number, got {type(v).__name__}")
    v = float(v)
    if math.isnan(v) or (math.isinf(v) and not infinite_ok):
        raise ConfigError(ctx, f"must be finite, got {v}")
    return v


def _floats(v, ctx, infinite_ok=False):
    if not isinstance(v, list):
        raise ConfigError(ctx, "expected a list of numbers")
    return [_float(x, ctx, infinite_ok) for x in v]


def _floats_of_length(v, ctx, n, infinite_ok=False):
    v = _floats(v, ctx, infinite_ok)
    if len(v) != n:
        raise ConfigError(ctx, f"expected length {n}, got {len(v)}")
    return v


def _ints(v, ctx):
    if not isinstance(v, list):
        raise ConfigError(ctx, "expected a list of integers")
    return tuple(_int(i, ctx) for i in v)


def _index_set(v, ctx, n, size):
    """`v` as a tuple of at least one distinct index in [0, n); `size` names n."""
    v = _ints(v, ctx)
    if not v or len(set(v)) != len(v):
        raise ConfigError(ctx, "need at least one index, all distinct")
    if any(not 0 <= i < n for i in v):
        raise ConfigError(ctx, f"indices out of range for {size}={n}")
    return v


@dataclass
class ExperimentConfig:
    name: str
    model: InteractionModel
    truth: TruthSchedule
    n_particles: int
    dt: float
    n_steps: int
    estimators: list
    replicates: int
    base_seed: int
    record_every: int
    tail_fraction: float
    dump_trajectory: bool
    sweep_n_particles: list | None
    surface: dict | None
    raw: dict = field(repr=False, default_factory=dict)

    def content_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_TOP_KEYS = {
    "name", "model", "truth", "eta_true", "n_particles", "dt", "n_steps",
    "init", "estimators", "replicates", "base_seed", "record_every",
    "tail_fraction", "dump_trajectory", "sweep", "surface",
}

# the estimator fields every kind reads, and each kind's own (the README's table)
_EST_KEYS = {
    "kind", "label", "learning_rate", "rmsprop", "rms_rho", "rms_eps",
    "bounds_lower", "bounds_upper",
}
_KIND_KEYS = {
    "averaged": {"particle", "free_params", "weighting"},
    "triplet": {"triplet", "free_params", "weighting"},
    "averaged_m": {"pi", "free_params", "weighting"},
    "triplet_m": {"pi", "free_params", "weighting"},
    "diffusion": {"particle"},
}


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _check_keys(data, _TOP_KEYS, "")

    name = _require(data, "name", "", str)

    mdl = _require(data, "model", "", dict)
    _check_keys(mdl, {"id", "sigma"}, "model")
    model_id = _require(mdl, "id", "model", str)
    if model_id not in MODEL_ZOO:
        raise ConfigError("model.id", f"unknown model {model_id!r}")
    model_cls = MODEL_ZOO[model_id]
    model_kwargs = {}
    if "sigma" in mdl:
        if model_cls.eta_names:
            raise ConfigError("model.sigma", f"{model_id} takes eta_true, not a constant sigma")
        model_kwargs["sigma"] = _float(mdl["sigma"], "model.sigma")
        if model_kwargs["sigma"] <= 0:
            raise ConfigError("model.sigma", "must be positive")

    truth = _parse_truth(_require(data, "truth", "", dict), model_cls.p)

    eta_true = data.get("eta_true")
    if model_cls.eta_names and eta_true is None:
        raise ConfigError("eta_true", f"{model_id} requires eta_true")
    if eta_true is not None:
        eta_true = _float(eta_true, "eta_true")
        if eta_true <= 0:
            raise ConfigError("eta_true", "must be positive")
        if not model_cls.eta_names:
            raise ConfigError("eta_true", f"{model_id} has a constant diffusion")
        model_kwargs["eta"] = eta_true
    model = make_model(model_id, **model_kwargs)

    n_particles = _require(data, "n_particles", "", int)
    if n_particles < 1:
        raise ConfigError("n_particles", "must be >= 1")
    dt = _float(_require(data, "dt", ""), "dt")
    if dt <= 0:
        raise ConfigError("dt", "must be positive")
    n_steps = _require(data, "n_steps", "", int)
    if n_steps < 1:
        raise ConfigError("n_steps", "must be >= 1")

    init = _require(data, "init", "", dict)
    _check_keys(init, {"particles", "theta_low", "theta_high", "eta_low", "eta_high"}, "init")
    particle_init = init.get("particles", "standard-normal")
    if particle_init != "standard-normal":
        raise ConfigError("init.particles", f"unknown law {particle_init!r}")
    theta_low = _floats_of_length(_require(init, "theta_low", "init"), "init.theta_low",
                                  model.p)
    theta_high = _floats_of_length(_require(init, "theta_high", "init"), "init.theta_high",
                                   model.p)
    if any(lo > hi for lo, hi in zip(theta_low, theta_high)):
        raise ConfigError("init.theta_low, init.theta_high", "lower bound exceeds upper bound")
    eta_low = init.get("eta_low")
    eta_high = init.get("eta_high")
    if eta_low is not None:
        eta_low = _float(eta_low, "init.eta_low")
    if eta_high is not None:
        eta_high = _float(eta_high, "init.eta_high")
    if eta_low is not None and eta_high is not None and eta_low > eta_high:
        raise ConfigError("init.eta_low, init.eta_high", "lower bound exceeds upper bound")

    sweep = data.get("sweep")
    sweep_list = None
    if sweep is not None:
        _check_keys(_typed(sweep, "sweep", dict), {"n_particles"}, "sweep")
        sweep_list = list(_ints(_require(sweep, "n_particles", "sweep", list), "sweep.n_particles"))
        if any(n < 1 for n in sweep_list):
            raise ConfigError("sweep.n_particles", "entries must be >= 1")
    # estimator indices must exist in every system size the config runs
    n_min = min([n_particles] + (sweep_list or []))

    est_list = _require(data, "estimators", "", list)
    if not est_list:
        raise ConfigError("estimators", "need at least one estimator")
    estimators = [
        _parse_estimator(e, i, model, truth, n_min) for i, e in enumerate(est_list)
    ]
    labels = [e.label for e in estimators]
    if len(set(labels)) != len(labels):
        raise ConfigError("estimators", f"duplicate estimator labels: {labels}")
    runs_diffusion = any(e.kind == "diffusion" for e in estimators)
    if runs_diffusion and (eta_low is None or eta_high is None):
        raise ConfigError("init.eta_low, init.eta_high",
                          "diffusion estimator needs an eta init box")
    if not runs_diffusion and (eta_low is not None or eta_high is not None):
        raise ConfigError("init.eta_low" if eta_low is not None else "init.eta_high",
                          "only a diffusion estimator reads the eta init box; none runs")

    replicates = _require(data, "replicates", "", int)
    if replicates < 1:
        raise ConfigError("replicates", "must be >= 1")
    base_seed = _require(data, "base_seed", "", int)
    if base_seed < 0:
        raise ConfigError("base_seed", "must be non-negative")
    record_every = _int(data.get("record_every", 1), "record_every")
    if record_every < 1:
        raise ConfigError("record_every", "must be a positive integer")
    tail_fraction = _float(data.get("tail_fraction", 0.1), "tail_fraction")
    if not 0 < tail_fraction <= 1:
        raise ConfigError("tail_fraction", "must lie in (0, 1]")

    surface = data.get("surface")
    if surface is not None:
        surface_keys = {"axes", "scan_kind", "horizon_steps", "burn_in_steps"}
        _check_keys(_typed(surface, "surface", dict), surface_keys, "surface")
        axes = _require(surface, "axes", "surface", list)
        if len(axes) != model.p:
            raise ConfigError("surface.axes", f"expected {model.p} axes")
        kind = surface.get("scan_kind", "L_iN")
        if kind not in ("L_iN", "L_ijkN"):
            raise ConfigError("surface.scan_kind", f"unknown kind {kind!r}")
        if kind == "L_ijkN" and n_particles < 3:
            raise ConfigError("surface.scan_kind", "L_ijkN observes particles 0, 1 and 2; "
                              f"n_particles is {n_particles}")
        hz = _require(surface, "horizon_steps", "surface", int)
        if hz < 1:
            raise ConfigError("surface.horizon_steps", "must be >= 1")
        bi = _int(surface.get("burn_in_steps", hz // 10), "surface.burn_in_steps")
        if bi < 0:
            raise ConfigError("surface.burn_in_steps", "must be >= 0")
        if bi >= hz:
            raise ConfigError("surface.burn_in_steps, surface.horizon_steps",
                              "need burn_in < horizon")
        axes = [_floats(a, "surface.axes") for a in axes]
        if not all(axes):
            raise ConfigError("surface.axes", "every axis needs at least one value")
        surface = {"axes": axes, "scan_kind": kind, "horizon_steps": hz, "burn_in_steps": bi}

    # the per-replicate initial estimates, once every field is valid
    theta_inits, eta_uniforms = draw_initial_thetas(batch_seeds(base_seed, replicates),
                                                    theta_low, theta_high)
    for setup in estimators:
        if setup.kind == "diffusion":
            setup.theta_init = eta_low + eta_uniforms * (eta_high - eta_low)
        else:
            setup.theta_init = theta_inits.copy()
            if setup.free_mask is not None:  # a pinned coordinate starts at the truth
                fixed = setup.free_mask == 0
                setup.theta_init[:, fixed] = truth.at(0.0)[fixed]

    return ExperimentConfig(
        name=name,
        model=model,
        truth=truth,
        n_particles=n_particles,
        dt=dt,
        n_steps=n_steps,
        estimators=estimators,
        replicates=replicates,
        base_seed=base_seed,
        record_every=record_every,
        tail_fraction=tail_fraction,
        dump_trajectory=_typed(data.get("dump_trajectory", False), "dump_trajectory", bool),
        sweep_n_particles=sweep_list,
        surface=surface,
        raw=data,
    )


def _parse_truth(d, p) -> TruthSchedule:
    """The truth schedule; every parameter vector in it has length `p`."""
    _check_keys(d, {"kind", "values", "start", "end", "switch_time", "horizon"}, "truth")
    kind = _require(d, "kind", "truth", str)
    if kind not in ("constant", "changepoint", "ramp"):
        raise ConfigError("truth.kind", f"unknown kind {kind!r}")

    def vector(key):
        return _floats_of_length(_require(d, key, "truth"), f"truth.{key}", p)

    if kind == "constant":
        return TruthSchedule.constant(vector("values"))
    if kind == "changepoint":
        switch_time = _float(_require(d, "switch_time", "truth"), "truth.switch_time")
        return TruthSchedule("changepoint", vector("start"), vector("end"),
                             switch_time=switch_time)
    horizon = _float(_require(d, "horizon", "truth"), "truth.horizon")
    if horizon <= 0:
        raise ConfigError("truth.horizon", "must be positive")
    return TruthSchedule("ramp", vector("start"), vector("end"), horizon=horizon)


def _parse_estimator(d, index, model, truth, n_particles) -> EstimatorSetup:
    """One estimator, without its initial estimate; its indices are checked
    against the smallest N of the run."""
    ctx = f"estimators[{index}]"
    if not isinstance(d, dict):
        raise ConfigError(ctx, "must be an object")
    kind = _require(d, "kind", ctx, str)
    if kind not in ESTIMATOR_KINDS:
        raise ConfigError(f"{ctx}.kind", f"unknown kind {kind!r}")
    if kind == "diffusion" and not model.eta_names:
        raise ConfigError(f"{ctx}.kind", f"{model.model_id} has no diffusion parameters")
    _check_keys(d, _EST_KEYS | _KIND_KEYS[kind], ctx, f"not a field of kind {kind}")
    label = _typed(d.get("label", kind), f"{ctx}.label", str)
    if any(c in label for c in ',"\r\n'):
        # labels are written unquoted into CSV rows
        raise ConfigError(f"{ctx}.label", f"no comma, quote or line break allowed: {label!r}")

    # only the index field the kind reads
    if kind in ("averaged_m", "triplet_m"):
        pi = _index_set(_require(d, "pi", ctx), f"{ctx}.pi", n_particles, "N")
        if kind == "triplet_m" and len(pi) < 3 and n_particles < 3:
            # fewer than 3 indices are completed to a triplet from the others
            raise ConfigError(f"{ctx}.pi", f"triplets need at least 3 particles, N={n_particles}")
        # Pi is held sorted, so the order it was given in cannot change the sum
        indices = ({"particles": tuple(sorted(pi))} if kind == "averaged_m"
                   else {"triplets": build_cyclic_triplets(pi)})
    elif kind == "triplet":
        triplet = _index_set(d.get("triplet", [0, 1, 2]), f"{ctx}.triplet", n_particles, "N")
        if len(triplet) != 3:
            raise ConfigError(f"{ctx}.triplet", "need three distinct indices")
        indices = {"triplets": (triplet,)}
    else:
        indices = {"particles": _index_set([d.get("particle", 0)], f"{ctx}.particle",
                                           n_particles, "N")}

    lr = _require(d, "learning_rate", ctx, dict)
    _check_keys(lr, {"kind", "gamma0", "beta", "scale"}, f"{ctx}.learning_rate")
    lr_kind = _require(lr, "kind", f"{ctx}.learning_rate", str)
    if lr_kind not in ("constant", "power-law"):
        raise ConfigError(f"{ctx}.learning_rate.kind", f"unknown kind {lr_kind!r}")
    gamma0 = _float(_require(lr, "gamma0", f"{ctx}.learning_rate"), f"{ctx}.learning_rate.gamma0")
    if gamma0 <= 0:
        raise ConfigError(f"{ctx}.learning_rate.gamma0", "must be positive")
    beta = lr.get("beta")
    if beta is not None:
        beta = _float(beta, f"{ctx}.learning_rate.beta")
    if lr_kind == "power-law" and (beta is None or not 0 < beta <= 1):
        raise ConfigError(f"{ctx}.learning_rate.beta", "power-law needs beta in (0, 1]")
    scale = lr.get("scale")
    param_names = model.eta_names if kind == "diffusion" else model.param_names
    n_par = len(param_names)
    if scale is not None:
        scale = _floats_of_length(scale, f"{ctx}.learning_rate.scale", n_par)
        if any(s <= 0 for s in scale):
            raise ConfigError(f"{ctx}.learning_rate.scale", "entries must be positive")

    free_mask = None
    if d.get("free_params") is not None:
        free_mask = np.zeros(model.p)
        free_mask[list(_index_set(d["free_params"], f"{ctx}.free_params", model.p, "p"))] = 1.0

    lower = d.get("bounds_lower")
    upper = d.get("bounds_upper")
    bounds_fields = f"{ctx}.bounds_lower, {ctx}.bounds_upper"
    if (lower is None) != (upper is None):
        raise ConfigError(bounds_fields, "bounds must be given as a pair")
    if lower is not None:
        lower = _floats_of_length(lower, f"{ctx}.bounds_lower", n_par, infinite_ok=True)
        upper = _floats_of_length(upper, f"{ctx}.bounds_upper", n_par, infinite_ok=True)
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ConfigError(bounds_fields, "lower bound exceeds upper bound")

    rmsprop = _typed(d.get("rmsprop", False), f"{ctx}.rmsprop", bool)
    for key in ("rms_rho", "rms_eps"):
        if key in d and not rmsprop:
            raise ConfigError(f"{ctx}.{key}", 'only valid with "rmsprop": true')
    rms_rho = _float(d.get("rms_rho", 0.99), f"{ctx}.rms_rho")
    if not 0.0 <= rms_rho < 1.0:
        raise ConfigError(f"{ctx}.rms_rho", "must lie in [0, 1)")
    rms_eps = _float(d.get("rms_eps", 1e-8), f"{ctx}.rms_eps")
    if not rms_eps > 0.0:
        raise ConfigError(f"{ctx}.rms_eps", "must be positive")

    weighting = d.get("weighting")
    if weighting is not None:
        if weighting not in ("identity", "inverse-diffusion"):
            raise ConfigError(f"{ctx}.weighting", f"unknown mode {weighting!r}")
        if weighting == "inverse-diffusion" and model.weighting == "identity":
            raise ConfigError(
                f"{ctx}.weighting",
                f"{model.model_id} has a degenerate noise block; its residuals "
                "cannot be inverse-diffusion weighted",
            )

    if lower is not None:
        bounds = Box(lower, upper)
    else:
        bounds = model.eta_bounds if kind == "diffusion" else None
    return EstimatorSetup(
        kind=kind,
        label=label,
        **indices,
        schedule=LearningRateSchedule(
            kind=lr_kind, gamma0=gamma0, beta=beta,
            scale=None if scale is None else np.asarray(scale, dtype=float),
        ),
        free_mask=free_mask,
        bounds=bounds,
        rmsprop=RmsPropConfig(rms_rho, rms_eps) if rmsprop else None,
        weight=None if kind == "diffusion" else weight_matrix(model, mode=weighting),
        param_names=param_names,
        truth=TruthSchedule.constant([model.diffusion.eta]) if kind == "diffusion" else truth,
    )


def load_config(path, **overrides) -> ExperimentConfig:
    """Load and validate a config from a filesystem path or a bundled name;
    `overrides` replace top-level fields of the file before it is parsed."""
    text = None
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        text = _bundled_text(str(path))
        if text is None:
            raise ConfigError("<file>", f"no such config file or bundled name: {path}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("<file>", f"invalid JSON at line {e.lineno}: {e.msg}")
    if isinstance(data, dict):
        data.update(overrides)
    return parse_config(data)


def _bundled_text(name: str) -> str | None:
    if not name.endswith(".json"):
        name = name + ".json"
    ref = resources.files("ipslearn").joinpath("configs", name)
    if ref.is_file():
        return ref.read_text()
    return None


def bundled_config_names() -> list:
    out = []
    for entry in resources.files("ipslearn").joinpath("configs").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)
