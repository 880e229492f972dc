#!/usr/bin/env python3
"""Serving benchmark runner: builds the load generator from source, runs one
workload, and prints the result.

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 18 --trace 0

The load generator (perfbench/src) is compiled together with the library
sources in src/ into .bench_build/perfbench (or under $CARGO_TARGET_DIR when
set). Standard output carries the full report line (context, notes, every
metric) followed by, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1. The full report is also saved under
<build>/perfbench/results/ for compare.py. Build output goes to standard
error. --corpus tiny swaps in a small corpus (smoke tests only).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_CORPUS = ["--items", "3000", "--keywords", "20000", "--nodes", "150"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    cmake_dir = out_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "perfbench_loadgen",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return cmake_dir / "perfbench_loadgen"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need not
    be a git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corpus", choices=("default", "tiny"), default="default")
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corpus == "tiny":
        argv += TINY_CORPUS
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        argv += ["--spans-out", str(results / f"{name}-spans.jsonl")]
    try:
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"load generator exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"load generator exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("load generator printed no report")
    report = json.loads(lines[-1])
    report["context"]["git_rev"] = git_rev()
    report["context"]["source_digest"] = source_digest()

    wanted = per_layer if args.trace else end_to_end
    produced = report["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(produced))
    if missing:
        fail(f"report lacks declared metrics: {', '.join(missing)}")
    metrics = {}
    for metric, unit in wanted.items():
        value = produced[metric]["value"]
        if produced[metric]["unit"] != unit or not math.isfinite(value):
            fail(f"metric {metric} reads {value} {produced[metric]['unit']}, "
                 f"declared unit {unit}")
        metrics[metric] = {"value": value, "unit": unit}

    (results / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps(report))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
