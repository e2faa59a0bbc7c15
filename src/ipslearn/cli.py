"""Command-line surface.

Subcommands: simulate, estimate, sweep, surface, diagnose, validate.
Exit codes: 0 success, 1 runtime failure, 2 validation failure.  Errors are
emitted as one JSON object on stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .batch import batch_seeds
from .config import ConfigError, load_config, parse_config
from .diagnostics import CLT_MIN_REPLICATES, clt_rescaled_moments, coupling_distance
from .models import MODEL_ZOO
from .runner import (
    base_metadata,
    initial_setups,
    param_names,
    run_experiment,
    run_surface,
    run_sweep,
    write_csv,
    write_sidecar,
)
from .sde import MomentTracker, SimulationBlowup, run_trajectory
from .estimators import validate_schedule


def _error(kind, message, code):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _add_common(p):
    p.add_argument("--config", required=True, help="config path or bundled name")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--replicates", type=int, default=None, help="override replicate count")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ipslearn",
        description="Simulate interacting particle systems and run online "
        "parameter estimators against the observation stream.",
    )
    ap.add_argument("--list-models", action="store_true", help="print the model zoo and exit")
    sub = ap.add_subparsers(dest="command")
    for name, doc in [
        ("simulate", "integrate trajectories and dump the state stream"),
        ("estimate", "run the configured online estimators"),
        ("sweep", "error sweep over the particle counts in config.sweep"),
        ("surface", "time-averaged contrast over the config's parameter grid"),
        ("diagnose", "moment tracking / coupling distance / rescaled-error moments"),
        ("validate", "check a config and its learning-rate schedules"),
    ]:
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "diagnose":
            p.add_argument("--mode", choices=["moments", "coupling", "clt"], default="moments")
            p.add_argument("--n-small", type=int, nargs="*", default=[5, 10, 20])
            p.add_argument("--n-big", type=int, default=500)
    return ap


def _load(args):
    """Load the config; --seed and --replicates overrides are validated like the file."""
    config = load_config(args.config)
    overrides = {
        key: value
        for key, value in (("base_seed", args.seed), ("replicates", args.replicates))
        if value is not None
    }
    if overrides:
        config = parse_config({**config.raw, **overrides})
    return config


def _cmd_validate(args):
    config = _load(args)
    report = {"config": "ok", "name": config.name, "schedules": {}}
    for setup in config.estimators:
        sched = validate_schedule(setup.schedule)
        report["schedules"][setup.label] = {
            "mode": sched.mode,
            "convergence_conditions": sched.robbins_monro_ok,
            "rate_conditions": sched.rate_conditions_ok,
            "notes": list(sched.notes),
        }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def _cmd_diagnose(args):
    config = _load(args)
    if args.mode == "coupling":
        if args.n_big < 1:
            raise ConfigError("--n-big", f"must be >= 1, got {args.n_big}")
        if not args.n_small:
            raise ConfigError("--n-small", "needs at least one system size")
        if any(not 1 <= n <= args.n_big for n in args.n_small):
            raise ConfigError("--n-small", f"sizes must lie in [1, --n-big={args.n_big}], "
                              f"got {args.n_small}")
    if args.mode == "clt":
        # the CLT check analyses the first estimator only
        if config.replicates < CLT_MIN_REPLICATES:
            raise ConfigError("replicates", f"the CLT check needs at least "
                              f"{CLT_MIN_REPLICATES}, got {config.replicates}")
        if not validate_schedule(config.estimators[0].schedule).rate_conditions_ok:
            raise ConfigError("estimators[0].learning_rate",
                              "the CLT check needs a power-law schedule with beta in (1/2, 1)")
    model = config.model
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = base_metadata(config)
    if args.mode == "moments":
        # a blow-up still writes the series up to it, then fails the run
        tracker = MomentTracker(config.n_steps)
        blowup = None
        try:
            run_trajectory(
                model, config.truth, config.n_particles, config.dt, config.n_steps,
                config.base_seed, observers=[tracker],
            )
        except SimulationBlowup as e:
            blowup = e
        n = tracker.n_filled
        step = np.tile(np.arange(n), len(tracker.orders))
        path = out / "moments.csv"
        write_csv(path, ["step", "time", "order", "value"], [
            step, step * config.dt, np.repeat(tracker.orders, n),
            np.concatenate([tracker.series[order][:n] for order in tracker.orders]),
        ])
        side = {**meta, "growth_detected": tracker.growth_detected()}
        if blowup is not None:
            side["blowup_step"] = blowup.step
        write_sidecar(path, side)
        if blowup is not None:
            raise blowup
    elif args.mode == "coupling":
        # one (n_steps,) series per n_small, each a block of rows
        series = coupling_distance(
            model, config.truth, args.n_small, args.n_big, config.dt,
            config.n_steps, config.base_seed,
        ).reshape(-1)
        step = np.tile(np.arange(config.n_steps), len(args.n_small))
        path = out / "coupling.csv"
        write_csv(path, ["step", "time", "n_small", "n_big", "mean_sq_distance"], [
            step, step * config.dt, np.repeat(args.n_small, config.n_steps),
            np.full(len(step), args.n_big), series,
        ])
        write_sidecar(path, meta)
    else:  # clt
        setup = initial_setups(config, batch_seeds(config.base_seed, config.replicates))[0]
        summary = clt_rescaled_moments(
            model, config.truth, config.n_particles, config.dt, config.n_steps,
            config.replicates, setup, config.base_seed,
        )
        free = setup.free_mask
        names = np.array([n for k, n in enumerate(param_names(model, setup.kind))
                          if free is None or free[k]])
        path = out / "clt.csv"
        write_csv(path, ["param", "variance", "skewness", "excess_kurtosis", "replicates"], [
            names, summary.variance, summary.skewness, summary.excess_kurtosis,
            np.full(len(names), summary.replicates),
        ])
        write_sidecar(path, meta)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.list_models:
        for mid, m in sorted(MODEL_ZOO.items()):
            print(f"{mid}: p={m.p} d={m.d} weighting={m.weighting} "
                  f"params={','.join(m.param_names)}")
        return 0
    if args.command is None:
        ap.print_help()
        return 2
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        config = _load(args)
        if args.command == "simulate":
            manifest = run_experiment(config, args.out, trajectory_only=True)
        elif args.command == "estimate":
            manifest = run_experiment(config, args.out)
        elif args.command == "sweep":
            manifest = run_sweep(config, args.out)
        elif args.command == "surface":
            manifest = run_surface(config, args.out)
        else:  # pragma: no cover
            return _error("usage", f"unknown command {args.command}", 2)
        print(json.dumps({"manifest": str(Path(args.out) / 'manifest.json'),
                          "artifacts": len(manifest["artifacts"])}))
        return 0
    except ConfigError as e:
        return _error("validation", str(e), 2)
    except Exception as e:  # runtime failures (blowups, IO)
        return _error("runtime", str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
