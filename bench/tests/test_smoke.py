"""Self-test of the benchmark in smoke mode.

Run from the repository root with ``python -m pytest -p no:cacheprovider
bench/tests``.  Every workload runs tiny; the tests check metric names
and units against BENCHMARK.json, that no op fails, and that the traced
counters are positive where the workload exercises them and repeat
exactly.  No time is asserted.  All outputs go to pytest's temporary
directory.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bytes"}

# counters each workload must drive above zero
EXERCISED = {
    "solve": ["shooting.shoot.calls", "shooting.nfev",
              "shooting.nfev_per_shoot.k1m2", "shooting.nfev_per_shoot.k2m3",
              "shooting.nfev_per_shoot.k1m3", "shooting.to_csv.bytes",
              "fd.grid_derivative.calls", "cli.main.calls", "cli.output_bytes"],
    "certify": ["patches.metric.calls", "patches.field.calls",
                "patches.metric.calls_per_certificate.k1m2",
                "patches.metric.calls_per_certificate.k2m3",
                "patches.metric.calls_per_certificate.k1m3",
                "fd.value_jet.calls", "fd.value_grad.calls",
                "fd.metric_calls_per_jet", "curvature.ricci_fd.calls",
                "curvature.soliton_residual.calls",
                "curvature.metric_calls_per_soliton_residual",
                "shooting.from_csv.bytes", "shooting.spline.calls",
                "shooting.spline.points",
                "shooting.spline.calls_per_certificate.k2m3",
                "cli.main.calls", "cli.output_bytes"],
    "quotient": ["patches.metric.calls", "patches.field.calls",
                 "shooting.from_csv.bytes", "shooting.spline.calls",
                 "cli.main.calls", "cli.output_bytes"],
    "sweep": ["shooting.sweep.rows", "cli.main.calls", "cli.output_bytes"],
}


def run_bench(tmp_path, workload, trace, seed=3, smoke=True, bench=BENCH,
              extra=()):
    cmd = [sys.executable, os.path.join(bench, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--workdir", str(tmp_path / "work"),
           *extra]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=str(tmp_path), env=env)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names_and_units(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path, workload):
    proc = run_bench(tmp_path, workload, trace=0)
    result = result_of(proc)
    check_names_and_units(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    fail_line = [ln for ln in proc.stdout.splitlines()
                 if ln.startswith("fail_ratio")]
    assert len(fail_line) == 1 and fail_line[0].split()[1] == "0"
    assert not (tmp_path / "work").exists()  # temporary outputs removed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counters_positive_and_repeatable(tmp_path, workload):
    spans = tmp_path / "spans.jsonl"
    first = result_of(run_bench(tmp_path, workload, trace=1,
                                extra=("--spans", str(spans))))
    second = result_of(run_bench(tmp_path, workload, trace=1))
    check_names_and_units(first, SPEC["per_layer"])
    counters = {name for name, v in first["metrics"].items()
                if v["unit"] in COUNT_UNITS}
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in EXERCISED[workload]:
        assert first["metrics"][name]["value"] > 0, name
    with open(spans) as fh:
        records = [json.loads(line) for line in fh]
    ops = sum(1 for name, *_ in records if name == "op")  # one main() each
    assert ops == first["metrics"]["cli.main.calls"]["value"]
    assert all(start <= end for _, start, end, _, _ in records)


def test_certify_counts_reproduce_baseline(tmp_path):
    """Full-size certify: evaluations per certificate do not depend on b0."""
    metrics = result_of(run_bench(tmp_path, "certify", trace=1, seed=11,
                                  smoke=False))["metrics"]
    expected = {"k1m2": (8584, 9375), "k2m3": (18848, 20855),
                "k1m3": (13048, 13615)}
    for label, (metric_calls, spline_calls) in expected.items():
        assert metrics[f"patches.metric.calls_per_certificate.{label}"][
            "value"] == metric_calls
        assert metrics[f"shooting.spline.calls_per_certificate.{label}"][
            "value"] == spline_calls
    assert metrics["fd.metric_calls_per_jet"]["value"] == 265
    assert metrics["curvature.metric_calls_per_soliton_residual"][
        "value"] == 291


def test_fails_without_sources(tmp_path):
    """In a tree holding only the benchmark, it exits nonzero with no result."""
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(tmp_path, "solve", trace=0, bench=str(bare / "bench"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
