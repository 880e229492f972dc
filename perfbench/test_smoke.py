#!/usr/bin/env python3
"""Tiny-corpus smoke test of the benchmark's output format.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json through run.py on a 3,000-item
corpus, untraced and traced, and checks the last output line: exactly the
keys correct/attempted/failed/metrics, a correct run with at least one
attempt, and exactly the declared metric names with their declared units
and finite values. Also checks that compare.py refuses reports whose
contexts differ. Takes about a minute after the first build.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402  (the runner: shares its build path)


def run_workload(workload, seed, trace):
    """The run's last output line, parsed; {} when the run failed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--corpus", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if out.returncode == 0 and lines else {}


def check(result, declared, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("run not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed not an integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, cell in metrics.items():
        if set(cell) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(cell)}")
        elif cell["unit"] != declared.get(name):
            problems.append(f"{name}: unit {cell['unit']}")
        elif not isinstance(cell["value"], (int, float)) or \
                not math.isfinite(cell["value"]):
            problems.append(f"{name}: value {cell['value']}")
    return [f"{label}: {p}" for p in problems]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        untraced = run_workload(name, 7, 0)
        problems += check(untraced, end_to_end, f"{name} trace 0")
        for metric, cell in untraced["metrics"].items():
            if cell["value"] == 0:
                problems.append(f"{name}: end-to-end {metric} reads 0")
        problems += check(run_workload(name, 7, 1), per_layer, f"{name} trace 1")

    results = bench_run.build_dir() / "results"
    refused = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(results / "paper_batch-seed7-trace0.json"),
         str(results / "query_mix-seed7-trace0.json")],
        cwd=ROOT, capture_output=True, text=True)
    if refused.returncode != 2:
        problems.append("compare.py accepted reports with different contexts")

    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
