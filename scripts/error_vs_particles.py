#!/usr/bin/env python3
"""Tail-error sweep over the particle count for the linear model.

Reproduces the error-vs-N comparison: the three-particle estimator's error
shrinks as the system grows, while the full-observation estimator's error is
flat once its transient fits inside the horizon.
"""

import argparse
import sys

from ipslearn.config import ConfigError, load_config, parse_config
from ipslearn.runner import run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="linear_fig2_sweep")
    ap.add_argument("--out", default="results/error_vs_particles")
    ap.add_argument("--replicates", type=int, default=None)
    args = ap.parse_args()
    try:
        config = load_config(args.config)
        if args.replicates is not None:
            # validated like the file itself, as the CLI's --replicates is
            config = parse_config({**config.raw, "replicates": args.replicates})
        manifest = run_sweep(config, args.out)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return 2
    print(f"wrote {len(manifest['artifacts'])} artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
