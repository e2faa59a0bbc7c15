"""Benchmark of the ipslearn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the CLI is run from `src/` as a child
process, one run at a time, on a config generated from the workload and
the seed.  With `--trace 0` it alternates set-up runs (the same config cut
to one step) and full runs for about S seconds and prints the end-to-end
metrics; with `--trace 1` it alternates untraced and traced full runs and
prints the per-layer metrics.  Every run's outputs are checked.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Work files go to `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import layertrace
from workloads import WORKLOADS, expected_counts, particle_steps

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references"
CLI = "import sys; from ipslearn.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 90

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "particle_steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "rng.next_step_self_us": "us",
    "rng.stream_init_s": "s",
    "rng.refills": "count",
    "models.drift_ensemble_us": "us",
    "models.weight_matrix_us": "us",
    "models.weight_matrix_calls_per_step": "calls/step",
    "sde.step_positions_self_us": "us",
    "sde.run_trajectory_s": "s",
    "sde.resim_steps": "count",
    "estimators.update_averaged_self_us": "us",
    "estimators.update_three_particle_self_us": "us",
    "estimators.apply_raw_update_us": "us",
    "estimators.updates": "count",
    "estimators.frozen_update_fraction": "fraction",
    "batch.run_batch_self_us_per_step": "us/step",
    "batch.excluded_replicates": "count",
    "runner.write_csv_s": "s",
    "runner.rows_written": "count",
    "runner.bytes_written": "bytes",
    "runner.write_mb_per_s": "MB/s",
    "runner.sha256_s": "s",
    "diagnostics.l2_error_sweep_self_s": "s",
    "config.load_s": "s",
    **{f"{m}.import_s": "s" for m in layertrace.MODULES},
    "trace.overhead_s": "s",
    "trace.self_time_coverage": "fraction",
    "trace.intended_layer_share": "fraction",
    "trace.missing_layers": "count",
    "trace.count_mismatches": "count",
}


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int


def run_child(argv, log_path: Path) -> ChildRun:
    """Run one child with src/ on its path; time it from launch to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


class OutputChecker:
    """Checks each run's outputs: against the committed reference on the
    reference seed, otherwise against the first run of the same config
    (byte-identical files) with every checked value finite."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first_hashes = {}
        self.problems = []

    def __call__(self, kind: str, run: ChildRun, out_dir: Path) -> bool:
        problems = []
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        elif not (out_dir / "manifest.json").is_file():
            problems.append("no manifest.json")
        else:
            hashes = check.file_hashes(out_dir)
            if kind not in self.first_hashes:
                self.first_hashes[kind] = hashes
                values, problems = check.extract(out_dir)
                if kind == "full" and self.reference is not None:
                    problems += check.compare(self.reference, values)
            elif hashes != self.first_hashes[kind]:
                differ = sorted(n for n in set(hashes) | set(self.first_hashes[kind])
                                if hashes.get(n) != self.first_hashes[kind].get(n))
                problems.append(f"differs from the first {kind} run in {differ[:5]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.problems += [f"{kind} run: {p}" for p in problems]
        return not problems


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def summary(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"


def write_reference(wl, cfg_path: Path, run_dir: Path, ref_path: Path) -> int:
    out = run_dir / "reference"
    run = run_child([sys.executable, "-c", CLI, wl.command, "--config", str(cfg_path),
                     "--out", str(out)], run_dir / "reference.txt")
    values, problems = check.extract(out)
    if run.code or problems:
        sys.stderr.write(f"perfbench: reference run failed: exit {run.code} {problems}\n")
        return 1
    ref_path.parent.mkdir(exist_ok=True)
    ref_path.write_text(json.dumps({"workload": wl.name, "files": values},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {ref_path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="override n_steps (quick looks and the benchmark's tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the outputs of one run on the reference seed as "
                         "the workload's reference, and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ipslearn" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ipslearn sources under {ROOT / 'src'}\n")
        return 2

    wl = WORKLOADS[args.workload]
    ref_path = REFERENCES / f"{wl.name}.json"
    at_reference = args.seed == wl.reference_seed(ROOT) and args.steps is None
    if args.write_reference and not at_reference:
        sys.stderr.write("perfbench: --write-reference needs the reference seed and no --steps\n")
        return 2

    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = wl.make_config(ROOT, args.seed, args.steps)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    if args.write_reference:
        return write_reference(wl, cfg_path, run_dir, ref_path)
    setup_path = run_dir / "config_setup.json"
    setup_path.write_text(json.dumps(wl.make_config(ROOT, args.seed, 1), indent=1))

    checker = OutputChecker(json.loads(ref_path.read_text())["files"] if at_reference else None)
    results = []  # (ChildRun, ok) of every checked CLI run

    def cli_run(kind, config_path, trace_path=None):
        out = run_dir / f"out{len(results):03d}"
        if trace_path is None:
            head = [sys.executable, "-c", CLI]
        else:
            head = [sys.executable, str(HERE / "layertrace.py"), str(trace_path), "--"]
        argv = head + [wl.command, "--config", str(config_path), "--out", str(out)]
        run = run_child(argv, run_dir / f"log{len(results):03d}.txt")
        ok = checker(kind, run, out)
        results.append((run, ok))
        sys.stderr.write(f"{kind}{' traced' if trace_path else ''}: {run.wall_s:.3f} s "
                         f"{run.rss_mb:.0f} MB {'ok' if ok else 'FAILED'}\n")
        return run, ok

    # compile the sources and warm the file cache; not timed, not counted
    run_child([sys.executable, "-c", CLI, wl.command, "--config", str(setup_path),
               "--out", str(run_dir / "warmup")], run_dir / "warmup.txt")
    shutil.rmtree(run_dir / "warmup", ignore_errors=True)

    start = time.perf_counter()

    def keep_going(done, at_least):
        # another pair fits in --seconds if it takes as long as the last one
        return done < at_least or time.perf_counter() - start + last_pair <= args.seconds

    last_pair = 0.0
    if args.trace == 0:
        full, setup = [], []
        while keep_going(len(full), 2):
            t = time.perf_counter()
            setup.append(cli_run("setup", setup_path)[0].wall_s)
            run = cli_run("full", cfg_path)[0]
            full.append(run)
            last_pair = time.perf_counter() - t
        wall = statistics.median(r.wall_s for r in full)
        setup_s = statistics.median(setup)
        # with tiny --steps the difference can vanish; keep the rate finite
        work_s = max(wall - setup_s, 1e-3)
        metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "particle_steps_per_s": particle_steps(wl.command, cfg) / work_s,
            "peak_rss_mb": statistics.median(r.rss_mb for r in full),
        }
        print(f"wall_s: {summary([r.wall_s for r in full])}")
        print(f"setup_s: {summary(setup)}")
        print(f"peak_rss_mb: {summary([r.rss_mb for r in full])}")
        units = END_TO_END_UNITS
    else:
        imports = []
        for k in range(3):
            log = run_dir / f"importtime{k}.txt"
            imp = run_child([sys.executable, "-X", "importtime", "-c", "import ipslearn.cli"], log)
            imports.append(layertrace.parse_importtime(log.read_text()) if imp.code == 0 else {})
        expected = expected_counts(wl.command, cfg)
        plain, traced, layer = [], [], []
        missing, problems = set(), set()
        while keep_going(len(traced), 1):
            t = time.perf_counter()
            plain.append(cli_run("full", cfg_path)[0].wall_s)
            trace_path = run_dir / f"trace{len(traced):03d}.json"
            run, ok = cli_run("full", cfg_path, trace_path)
            traced.append(run.wall_s)
            if ok:
                data = json.loads(trace_path.read_text())
                layer.append(layertrace.layer_metrics(data, run.wall_s, wl.intended))
                m, p = layertrace.self_check(data, expected, run.wall_s)
                missing.update(m)
                problems.update(p)
            last_pair = time.perf_counter() - t
        # with no traced run to read (all failed, so correct is false) report zeros
        metrics = ({k: statistics.median(d[k] for d in layer) for k in layer[0]} if layer
                   else dict.fromkeys(PER_LAYER_UNITS, 0.0))
        for mod in layertrace.MODULES:
            seen = [d[mod] for d in imports if mod in d]
            if not seen:
                missing.add(f"import {mod}")
            metrics[f"{mod}.import_s"] = statistics.median(seen) if seen else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["trace.missing_layers"] = len(missing)
        metrics["trace.count_mismatches"] = len(problems)
        print("trace-check: " + ("ok" if not (missing or problems) else "; ".join(
            [f"missing {m}" for m in sorted(missing)] + sorted(problems))))
        units = PER_LAYER_UNITS

    failed = sum(not ok for _, ok in results)
    for p in checker.problems:
        print(f"check: {p}")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({**result, "env": env, "runs": [
        {"wall_s": r.wall_s, "rss_mb": r.rss_mb, "code": r.code, "ok": ok} for r, ok in results
    ]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
