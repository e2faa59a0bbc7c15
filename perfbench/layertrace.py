"""Run the ipslearn CLI with a span around every call into each layer.

    python3 perfbench/layertrace.py TRACE.json -- <ipslearn CLI arguments>

Spans are recorded from outside the program: the public functions of
`rng`, `models`, `sde`, `estimators`, `batch`, `runner`, `diagnostics` and
`config`, plus the private update tail `_apply_raw_update` and the sha256
helper, are replaced, in every ipslearn module that holds a reference to
them, by wrappers that time the call.  Self time is a span's duration
minus that of the spans it caused.  The wrappers' own bookkeeping is
charged to a separate `tracer` span, so no layer pays for being traced.
The spans are kept in memory and written to TRACE.json when the CLI exits.

The module also turns such a trace into the benchmark's per-layer metrics
(`layer_metrics`) and checks it against what the config implies
(`self_check`).
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACER = "tracer"

# Spans whose call count a later change may legitimately take to zero
# (hoisting the weight matrix, fusing the update tail): never hitting them
# is not reported as a missing layer.
OPTIONAL = {"models.weight_matrix", "estimators._apply_raw_update"}

UPDATE_RULES = (
    "update_averaged",
    "update_three_particle",
    "update_m_averaged_full",
    "update_m_averaged_triplets",
    "update_diffusion",
)

# one import_s metric per ipslearn module, from `python -X importtime`
MODULES = (
    "ipslearn", "ipslearn.rng", "ipslearn.models", "ipslearn.sde", "ipslearn.estimators",
    "ipslearn.batch", "ipslearn.config", "ipslearn.objective", "ipslearn.diagnostics",
    "ipslearn.runner", "ipslearn.cli",
)

# tolerance of the self-time sum against the traced wall time, which also
# holds interpreter start-up and shutdown
COVERAGE_TOLERANCE = 0.05
COVERAGE_SLACK_S = 0.25


class Tracer:
    def __init__(self):
        self.stack = [[0]]  # per open span: [ns spent in its children]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.not_found = []

    @contextmanager
    def span(self, name):
        frame = [0]
        self.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            dur = time.perf_counter_ns() - start
            self.stack.pop()
            self.stack[-1][0] += dur
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - frame[0]

    def wrap(self, name, fn, before=None, after=None):
        stack, calls, total_ns, self_ns = self.stack, self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            if before is not None:
                before(args, kwargs)
            frame = [0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - frame[0]
                if ok and after is not None:
                    after(result, args, kwargs)
                done = clock()
                stack[-1][0] += done - enter
                self_ns[TRACER] += done - enter - dur
            return result

        return wrapper

    def patch_function(self, module, attr, name, **hooks):
        """Wrap module.attr and rebind every ipslearn reference to it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.not_found.append(name)
            return
        wrapper = self.wrap(name, orig, **hooks)
        for mname, mod in list(sys.modules.items()):
            if mname == "ipslearn" or mname.startswith("ipslearn."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, **hooks):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.not_found.append(name)
            return
        setattr(cls, attr, self.wrap(name, orig, **hooks))

    def dump(self, path):
        data = {
            "spans": {
                n: {"calls": self.calls[n], "total_ns": self.total_ns[n], "self_ns": self.self_ns[n]}
                for n in self.self_ns
            },
            "counters": dict(self.counters),
            "not_found": self.not_found,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)


def install(tracer):
    """Wrap the layer boundaries of the imported ipslearn package."""
    from ipslearn import batch, config, diagnostics, estimators, models, rng, runner, sde

    c = tracer.counters

    tracer.patch_function(config, "load_config", "config.load_config")
    tracer.patch_method(rng.RngStream, "__init__", "rng.RngStream.__init__")
    tracer.patch_method(rng.RngStream, "standard_normals", "rng.RngStream.standard_normals")
    tracer.patch_method(rng.BlockedNoise, "next_step", "rng.BlockedNoise.next_step")

    model_classes = [
        cls for cls in vars(models).values()
        if isinstance(cls, type) and issubclass(cls, models.InteractionModel)
        and "drift_ensemble" in cls.__dict__
    ]
    for cls in model_classes:
        tracer.patch_method(cls, "drift_ensemble", "models.drift_ensemble")
    if not model_classes:
        tracer.not_found.append("models.drift_ensemble")
    tracer.patch_function(models, "weight_matrix", "models.weight_matrix")

    open_trajectories = [0]

    def count_resim(args, kwargs):
        if open_trajectories[0]:
            c["resim_steps"] += 1

    def open_trajectory(args, kwargs):
        open_trajectories[0] += 1

    def close_trajectory(result, args, kwargs):
        open_trajectories[0] -= 1

    tracer.patch_function(sde, "step_positions", "sde.step_positions", before=count_resim)
    tracer.patch_function(sde, "run_trajectory", "sde.run_trajectory",
                          before=open_trajectory, after=close_trajectory)

    def count_frozen(args, kwargs):
        frozen = (args[0] if args else kwargs["state"]).frozen
        c["replicate_updates"] += frozen.size
        c["frozen_updates"] += int(frozen.sum())

    for rule in UPDATE_RULES:
        tracer.patch_function(estimators, rule, f"estimators.{rule}", before=count_frozen)
    tracer.patch_function(estimators, "_apply_raw_update", "estimators._apply_raw_update")

    def batch_done(result, args, kwargs):
        # a replicate excluded at step s wastes every later update of every
        # estimator; those already frozen at s were counted by count_frozen
        c["batch_steps"] += result.n_steps
        for r in result.excluded.nonzero()[0]:
            left = result.n_steps - int(result.blowup_step[r])
            c["excluded_replicates"] += 1
            c["excluded_updates"] += left * sum(not tr.frozen_final[r] for tr in result.tracks)

    tracer.patch_function(batch, "run_batch", "batch.run_batch", after=batch_done)

    def csv_written(result, args, kwargs):
        path = args[0] if args else kwargs["path"]
        rows = args[2] if len(args) > 2 else kwargs["rows"]
        c["bytes_written"] += os.path.getsize(path)
        c["rows_written"] += len(rows)

    tracer.patch_function(runner, "write_csv", "runner.write_csv", after=csv_written)
    tracer.patch_function(runner, "_sha256", "runner._sha256")
    tracer.patch_function(diagnostics, "l2_error_sweep", "diagnostics.l2_error_sweep")


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: layertrace.py TRACE.json -- <ipslearn CLI arguments>\n")
        return 2
    tracer = Tracer()
    with tracer.span("import"):
        import ipslearn.cli
    with tracer.span(TRACER):
        install(tracer)
    with tracer.span("cli.main"):
        code = ipslearn.cli.main(argv[2:])
    tracer.dump(argv[0])
    return code


# ---------------------------------------------------------------------------
# Trace -> per-layer metrics (run by run.py, not by the traced child)


def parse_importtime(stderr_text: str) -> dict:
    """Cumulative import seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(trace: dict, wall_s: float, intended: tuple) -> dict:
    """Per-layer values of one traced run whose wall time was `wall_s`."""
    spans, c = trace["spans"], trace["counters"]

    def calls(n):
        return spans.get(n, {}).get("calls", 0)

    def self_s(n):
        return spans.get(n, {}).get("self_ns", 0) / 1e9

    def total_s(n):
        return spans.get(n, {}).get("total_ns", 0) / 1e9

    def self_us(n):
        return _per(self_s(n), calls(n), 1e6)

    steps = c.get("batch_steps", 0)
    updates = sum(calls(f"estimators.{r}") for r in UPDATE_RULES)
    write_s = total_s("runner.write_csv")
    shares = sum(self_s(n) for n in spans if n.startswith(intended))
    return {
        "rng.next_step_self_us": self_us("rng.BlockedNoise.next_step"),
        "rng.stream_init_s": total_s("rng.RngStream.__init__"),
        "rng.refills": calls("rng.RngStream.standard_normals"),
        "models.drift_ensemble_us": self_us("models.drift_ensemble"),
        "models.weight_matrix_us": self_us("models.weight_matrix"),
        "models.weight_matrix_calls_per_step": _per(calls("models.weight_matrix"), steps),
        "sde.step_positions_self_us": self_us("sde.step_positions"),
        "sde.run_trajectory_s": total_s("sde.run_trajectory"),
        "sde.resim_steps": c.get("resim_steps", 0),
        "estimators.update_averaged_self_us": self_us("estimators.update_averaged"),
        "estimators.update_three_particle_self_us": self_us("estimators.update_three_particle"),
        "estimators.apply_raw_update_us": self_us("estimators._apply_raw_update"),
        "estimators.updates": updates,
        "estimators.frozen_update_fraction": _per(
            c.get("frozen_updates", 0) + c.get("excluded_updates", 0),
            c.get("replicate_updates", 0),
        ),
        "batch.run_batch_self_us_per_step": _per(self_s("batch.run_batch"), steps, 1e6),
        "batch.excluded_replicates": c.get("excluded_replicates", 0),
        "runner.write_csv_s": write_s,
        "runner.rows_written": c.get("rows_written", 0),
        "runner.bytes_written": c.get("bytes_written", 0),
        "runner.write_mb_per_s": _per(c.get("bytes_written", 0) / 1e6, write_s),
        "runner.sha256_s": total_s("runner._sha256"),
        "diagnostics.l2_error_sweep_self_s": self_s("diagnostics.l2_error_sweep"),
        "config.load_s": total_s("config.load_config"),
        "trace.self_time_coverage": _per(sum(self_s(n) for n in spans), wall_s),
        "trace.intended_layer_share": _per(shares, wall_s),
    }


def self_check(trace: dict, expected: dict, wall_s: float) -> tuple[list, list]:
    """(missing layers, other problems) of one traced run.

    A layer is missing when the config implies calls into it and its
    wrapper saw none, or could not be installed: its numbers would read as
    zero only because the trace no longer sees the code that does the work.
    """
    spans, c = trace["spans"], trace["counters"]

    def calls(n):
        return spans.get(n, {}).get("calls", 0)

    seen = {name: calls(name) for name in expected}
    seen["batch.steps"] = c.get("batch_steps", 0)
    seen["sde.resim_steps"] = c.get("resim_steps", 0)
    seen["estimators.updates"] = sum(calls(f"estimators.{r}") for r in UPDATE_RULES)
    missing = {n for n in trace["not_found"] if n not in OPTIONAL}
    problems = []
    for name, want in expected.items():
        if want and not seen[name]:
            missing.add(name)
        elif seen[name] != want:
            problems.append(f"{name}: {seen[name]} calls, config implies {want}")
    for name in ("rng.RngStream.__init__", "rng.RngStream.standard_normals",
                 "models.drift_ensemble", "runner._sha256"):
        if not calls(name):
            missing.add(name)
    covered = sum(s["self_ns"] for s in spans.values()) / 1e9
    if abs(wall_s - covered) > max(COVERAGE_TOLERANCE * wall_s, COVERAGE_SLACK_S):
        problems.append(f"self times sum to {covered:.3f} s of a {wall_s:.3f} s traced run")
    return sorted(missing), problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
