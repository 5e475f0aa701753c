"""Tests of the benchmark itself: schema, metric names, seeding, tracing, smoke runs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import report  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_definitions():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _, _ in report.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    out = result_line(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0


def test_traced_smoke_run_prints_every_per_layer_metric_and_writes_the_trace():
    proc = run_bench("--workload", "verify-fd", "--seed", "3", "--seconds", "0.01",
                     "--trace", "1")
    out = result_line(proc)
    assert out["correct"] is True
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["metrics"]["tensor.tape_nodes"]["value"] > 0
    trace_dir = ROOT / ".perfbench" / "trace" / "verify-fd-seed3"
    summary = json.loads((trace_dir / "trace.json").read_text())
    assert {"span_tree", "self_time_ms", "per_lane", "trace_overhead"} <= set(summary)
    assert "step.mb" in summary["per_lane"]
    assert (trace_dir / "self_time.txt").read_text().startswith("self ms per traced round")


def test_seed_changes_the_generated_inputs(tmp_path):
    w = workloads.WORKLOADS["charlm-small"]
    a = workloads.build(w, 1, tmp_path)
    same = workloads.build(w, 1, tmp_path)
    b = workloads.build(w, 2, tmp_path)
    xa, _ = a.task.batch(1, w.batch)
    assert np.array_equal(xa, same.task.batch(1, w.batch)[0])
    assert not np.array_equal(xa, b.task.batch(1, w.batch)[0])
    wa = a.lanes[0].model.named_parameters()[0][1].data
    wb = b.lanes[0].model.named_parameters()[0][1].data
    assert not np.array_equal(wa, wb)


def test_trimmed_mean_drops_the_ends_and_follows_the_mix_of_states():
    stalls = [1.0] * 18 + [50.0, 0.0]
    assert report.trimmed_mean(stalls) == 1.0
    assert report.trimmed_mean([5.0]) == 5.0
    # the value moves in proportion to the share of slow samples, with no jump at half
    mixes = [report.trimmed_mean([2.0] * (100 - s) + [3.0] * s) for s in (40, 50, 60)]
    assert mixes[1] - mixes[0] == pytest.approx(mixes[2] - mixes[1])
    assert report.summarize(stalls)["value"] == 1.0


def test_tracer_restores_every_patched_attribute():
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.changed_attributes(before)
    finally:
        tracer.uninstall()
    assert tracing.changed_attributes(before) == []


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "verify-fd", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
