#!/usr/bin/env python3
"""Scan the time-averaged contrast over a parameter grid.

For the linear model the surface shows the non-identifiability ridge
theta1 + theta2 = const; the surface CSV is ready for external contour
plotting.
"""

import argparse
import sys

from ipslearn.config import ConfigError, load_config
from ipslearn.runner import run_surface


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="linear_fig3_surface")
    ap.add_argument("--out", default="results/likelihood_surface")
    args = ap.parse_args()
    try:
        manifest = run_surface(load_config(args.config), args.out)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return 2
    print(f"wrote {len(manifest['artifacts'])} artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
