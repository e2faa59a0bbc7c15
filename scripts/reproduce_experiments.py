#!/usr/bin/env python3
"""Run every bundled experiment config through the ipslearn CLI.

A config with a surface section runs `ipslearn surface`, any other
`ipslearn estimate`, and with --with-sweeps also `ipslearn sweep` if it has a
sweep section.  Each run writes to its own directory under --out, named
after the config's file stem.  The script stops at the first failed run and
exits with the CLI's code; the CLI has written the error to stderr as one
JSON line.
"""

import argparse
import sys
from pathlib import Path

from ipslearn import cli
from ipslearn.config import ConfigError, bundled_config_names, load_config


def runs(name, with_sweeps):
    """(subcommand, output directory name) of each CLI run for config `name`.

    The directory is named after the config's file stem, so a config given
    as a path (`/abs/c.json`) writes to `c`, never to the path itself.
    """
    stem = Path(name).stem
    try:
        config = load_config(name)
    except ConfigError:
        return [("estimate", stem)]  # the CLI reports the error
    if config.surface is not None:
        return [("surface", stem)]
    sweep = with_sweeps and config.sweep_n_particles
    return [("estimate", stem)] + ([("sweep", f"{stem}_sweep")] if sweep else [])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of bundled config names to run")
    ap.add_argument("--with-sweeps", action="store_true",
                    help="also run the particle-count sweeps (slower)")
    args = ap.parse_args(argv)

    root = Path(args.out)
    for name in args.only or bundled_config_names():
        for command, out in runs(name, args.with_sweeps):
            code = cli.main([command, "--config", name, "--out", str(root / out)])
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
