"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, expected_counts  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def drive(workload, trace, steps=3, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--steps", str(steps)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = drive(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("env: ") and '"numpy"' in line for line in lines)
    if trace:
        assert "trace-check: ok" in lines
        assert result["metrics"]["trace.missing_layers"]["value"] == 0
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0


@pytest.fixture(scope="module")
def fhn_outputs(tmp_path_factory):
    """Outputs of one tiny estimate-fhn-dump run (estimates, summary, trajectories)."""
    tmp = tmp_path_factory.mktemp("fhn")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(WORKLOADS["estimate-fhn-dump"].make_config(ROOT, 5, 4)))
    out = tmp / "out"
    child = run.run_child([sys.executable, "-c", run.CLI, "estimate", "--config", str(cfg),
                           "--out", str(out)], tmp / "log.txt")
    assert child.code == 0, (tmp / "log.txt").read_text()
    return out, child


def test_output_check_fails_on_one_perturbed_reference_value(fhn_outputs):
    out, _ = fhn_outputs
    values, problems = check.extract(out)
    assert problems == []
    assert {"summary.csv", "estimates_r000.csv", "trajectory_r003.csv"} <= set(values)
    assert check.compare(values, values) == []

    perturbed = json.loads(json.dumps(values))
    row = next(iter(perturbed["summary.csv"].values()))
    row["tail_mean"] = repr(float(row["tail_mean"]) * (1 + 1e-15) + 1e-300)
    assert len(check.compare(perturbed, values)) == 1

    perturbed = json.loads(json.dumps(values))
    perturbed["trajectory_r001.csv"]["value"]["sha256"] = "0" * 64
    assert check.compare(perturbed, values) == [
        f"trajectory_r001.csv[value].sha256: {values['trajectory_r001.csv']['value']['sha256']}"
        f" != reference {'0' * 64}"
    ]


def test_output_checker_counts_a_perturbed_run_as_failed(fhn_outputs, tmp_path):
    out, child = fhn_outputs
    values, _ = check.extract(out)
    key = next(iter(values["summary.csv"]))
    values["summary.csv"][key]["final"] = "1.5"
    copy = tmp_path / "out"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    checker = run.OutputChecker(values)
    assert not checker("full", child, copy)
    assert checker.problems and "summary.csv" in checker.problems[0]


def test_extract_reports_non_finite_values(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "N,estimator,param,mse,stderr,excluded_count,extra\n3,averaged,0,nan,0.5,0,x\n"
    )
    values, problems = check.extract(tmp_path)
    assert values["sweep.csv"]["3|averaged|0"] == {"mse": "nan", "stderr": "0.5", "excluded_count": "0"}
    assert problems == ["sweep.csv[3|averaged|0].mse: non-finite value nan"]


def test_self_times_sum_to_the_traced_spans():
    tracer = layertrace.Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap("inner", leaf)

    def outer_fn():
        inner()
        inner()
        time.sleep(0.002)

    outer = tracer.wrap("outer", outer_fn)
    with tracer.span("root"):
        outer()
    assert tracer.calls == {"inner": 2, "outer": 1, "root": 1}
    assert tracer.self_ns["inner"] >= 4_000_000
    assert tracer.self_ns["outer"] >= 2_000_000
    assert tracer.self_ns["outer"] + tracer.self_ns["inner"] <= tracer.total_ns["outer"]
    assert sum(tracer.self_ns.values()) == tracer.total_ns["root"]


def test_a_layer_the_wrappers_never_see_is_missing_not_zero():
    cfg = WORKLOADS["estimate-fhn-dump"].make_config(ROOT, 5, 4)
    expected = expected_counts("estimate", cfg)
    spans = {name: {"calls": n, "self_ns": 1, "total_ns": 1} for name, n in {
        "batch.run_batch": 1, "rng.BlockedNoise.next_step": 20, "sde.step_positions": 20,
        "sde.run_trajectory": 0, "runner.write_csv": 9, "config.load_config": 1,
        "estimators.update_averaged": 4, "estimators.update_three_particle": 4,
        "rng.RngStream.__init__": 404, "rng.RngStream.standard_normals": 1,
        "models.drift_ensemble": 20, "runner._sha256": 18,
    }.items()}
    trace = {"spans": spans, "counters": {"batch_steps": 4, "resim_steps": 0},
             "not_found": ["models.weight_matrix"]}
    missing, problems = layertrace.self_check(trace, expected, 0.0)
    assert missing == ["sde.resim_steps", "sde.run_trajectory"]
    assert problems == []
