#!/usr/bin/env python3
"""Run every bundled experiment config and collect the outputs under results/.

Path-style configs (estimate), sweep configs, and surface configs are routed
to the matching runner.  Each experiment lands in its own directory with a
manifest; rerunning reproduces byte-identical files.
"""

import argparse
import sys
import time
from pathlib import Path

from ipslearn.config import ConfigError, bundled_config_names, load_config
from ipslearn.runner import run_experiment, run_surface, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of bundled config names to run")
    ap.add_argument("--with-sweeps", action="store_true",
                    help="also run the particle-count sweeps (slower)")
    args = ap.parse_args()

    names = args.only or bundled_config_names()
    root = Path(args.out)
    for name in names:
        try:
            config = load_config(name)
            t0 = time.time()
            if config.surface is not None:
                run_surface(config, root / name)
                kind = "surface"
            else:
                run_experiment(config, root / name)
                kind = "estimate"
                if args.with_sweeps and config.sweep_n_particles:
                    run_sweep(config, root / f"{name}_sweep")
                    kind += "+sweep"
        except ConfigError as e:
            print(e, file=sys.stderr)
            return 2
        print(f"{name}: {kind} done in {time.time() - t0:.1f}s -> {root / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
