"""Command-line surface.

Subcommands: simulate, estimate, sweep, surface, diagnose, validate.
Every subcommand but validate leaves its files to `runner` and prints one
JSON line naming the run's manifest.  Exit codes: 0 success, 1 runtime
failure, 2 validation failure.  Errors are emitted as one JSON object on
stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .estimators import validate_schedule
from .models import MODEL_ZOO
from .runner import run_diagnose, run_experiment, run_surface, run_sweep


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
    return load_config(args.config, **{
        key: value
        for key, value in (("base_seed", args.seed), ("replicates", args.replicates))
        if value is not None
    })


def _cmd_validate(config):
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
        config = _load(args)
        if args.command == "validate":
            return _cmd_validate(config)
        if args.command == "simulate":
            manifest = run_experiment(config, args.out, trajectory_only=True)
        elif args.command == "estimate":
            manifest = run_experiment(config, args.out)
        elif args.command == "sweep":
            manifest = run_sweep(config, args.out)
        elif args.command == "surface":
            manifest = run_surface(config, args.out)
        else:  # diagnose
            n_small, n_big = args.n_small, args.n_big
            if args.mode == "coupling":
                if n_big < 1:
                    raise ConfigError("--n-big", f"must be >= 1, got {n_big}")
                if not n_small:
                    raise ConfigError("--n-small", "needs at least one system size")
                if any(not 1 <= n <= n_big for n in n_small):
                    raise ConfigError("--n-small", f"sizes must lie in [1, --n-big={n_big}], "
                                      f"got {n_small}")
            manifest = run_diagnose(config, args.out, args.mode, n_small, n_big)
        print(json.dumps({"manifest": str(Path(args.out) / 'manifest.json'),
                          "artifacts": len(manifest["artifacts"])}))
        return 0
    except ConfigError as e:
        return _error("validation", str(e), 2)
    except Exception as e:  # runtime failures (blowups, IO)
        return _error("runtime", str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
