"""Smoke test of the benchmark itself: every workload in both modes, at tiny size.

Run with `python3 -m pytest -q perfbench`.  Each case starts the benchmark
as its own process, as the benchmark is meant to be run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _quality(workload, trace):
    path = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-s{SEED}-t{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["info"]["quality_unit0"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_repeats_exactly(workload):
    untraced = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    first = _quality(workload, 0)
    _result(_run(workload, 0))
    assert _quality(workload, 0) == first

    traced = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["other.self_s"] >= 0
    assert _quality(workload, 1) == first

    # a traced run covers a fixed set of units, so its counts repeat exactly
    again = _result(_run(workload, 1))["metrics"]
    counts = {k for k, m in traced["metrics"].items() if m["unit"] != "s"}
    assert {k: again[k]["value"] for k in counts} == {k: metrics[k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("random_stream", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
