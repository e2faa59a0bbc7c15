"""Golden digests of every bundled config, end to end through the CLI.

Each bundled config is cut to at most 300 steps (a surface to a 300-step
horizon, its burn-in scaled alike) in an in-memory copy, written next to
the outputs, and run through every subcommand that applies to it:
`estimate`, `simulate` and `diagnose --mode moments` and `--mode coupling
--n-small 5 10 --n-big 30` for every config, `sweep` and `surface` where
the config has that section, and `diagnose --mode clt` for `linear_clt`.
The sha256 of every file each run writes must match
`data/bundled_digests.json`, so any change to the simulated paths, the
estimates or the artifact formats shows here, file by file.  Each run's
`manifest.json` must list every other file in its directory with that
file's sha256.

One more case, `fitzhugh_nagumo_dense`, records and dumps every step
(`record_every: 1`, `dump_trajectory: true`) at 150 steps and 2
replicates, so that each `estimates_rNNN.csv` (1 200 rows) and
`trajectory_rNNN.csv` (15 000 rows) spans several of the CSV writer's
row blocks.

Regenerate (only when outputs are meant to move, and say why):

    PYTHONPATH=src python tests/test_bundled_digests.py --write
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ipslearn.cli import main as cli_main
from ipslearn.config import _bundled_text, bundled_config_names, parse_config

DIGESTS = Path(__file__).with_name("data") / "bundled_digests.json"
MAX_STEPS = 300

# case name -> (bundled config, overrides)
CASES = {name: (name, {}) for name in bundled_config_names()}
CASES["fitzhugh_nagumo_dense"] = (
    "fitzhugh_nagumo",
    {"n_steps": 150, "replicates": 2, "record_every": 1, "dump_trajectory": True},
)


def short_copy(case) -> dict:
    """The case's config with at most MAX_STEPS steps and surface horizon."""
    name, overrides = CASES[case]
    data = {**json.loads(_bundled_text(name)), **overrides}
    data["n_steps"] = min(data["n_steps"], MAX_STEPS)
    surface = data.get("surface")
    if surface is not None and surface["horizon_steps"] > MAX_STEPS:
        if "burn_in_steps" in surface:
            surface["burn_in_steps"] = surface["burn_in_steps"] * MAX_STEPS // surface["horizon_steps"]
        surface["horizon_steps"] = MAX_STEPS
    return data


def runs_for(data) -> dict:
    """CLI arguments (after --config and --out) of each applicable run."""
    config = parse_config(data)
    runs = {
        "estimate": ["estimate"],
        "simulate": ["simulate"],
        "diagnose-moments": ["diagnose", "--mode", "moments"],
        "diagnose-coupling": ["diagnose", "--mode", "coupling",
                              "--n-small", "5", "10", "--n-big", "30"],
    }
    if config.sweep_n_particles:
        runs["sweep"] = ["sweep"]
    if config.surface:
        runs["surface"] = ["surface"]
    if config.name == "linear_clt":
        runs["diagnose-clt"] = ["diagnose", "--mode", "clt"]
    return runs


def digests_of(case, root: Path) -> dict:
    """{run: {file name: sha256}} of every file each run writes under `root`."""
    data = short_copy(case)
    cfg_path = root / f"{case}.json"
    cfg_path.write_text(json.dumps(data))
    out = {}
    for run, argv in runs_for(data).items():
        run_dir = root / run
        with redirect_stdout(StringIO()):
            code = cli_main([argv[0], "--config", str(cfg_path), "--out", str(run_dir), *argv[1:]])
        assert code == 0, f"{case} {run} exited {code}"
        out[run] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir())
        }
        assert "manifest.json" in out[run], f"{case} {run} wrote no manifest"
        listed = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
        assert {a["name"]: a["sha256"] for a in listed} == {
            name: digest for name, digest in out[run].items() if name != "manifest.json"
        }, f"{case} {run}: the manifest does not list every file with its sha256"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundled_config_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[name]
    got = digests_of(name, tmp_path)
    assert sorted(got) == sorted(want), "the set of runs changed"
    for run in sorted(want):
        changed = sorted(
            f for f in set(want[run]) | set(got[run]) if want[run].get(f) != got[run].get(f)
        )
        assert not changed, f"{name} {run}: {len(changed)} files differ, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bundled_digests.py --write")
    data = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            data[case] = digests_of(case, Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
