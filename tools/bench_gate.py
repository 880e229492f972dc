#!/usr/bin/env python3
"""Benchmark gate: measures the current build and checks it within one run.

    python3 tools/bench_gate.py BUILD_DIR
    python3 tools/bench_gate.py --selftest

Runs BUILD_DIR/bench/microbench once and requires each optimized row to
beat its reference row of the same run by a fixed factor, so host speed
cancels out. Then runs a small deterministic ablation_naming configuration
and bounds recall@10 and msgs/query per workload and strategy. Exit status:
0 pass, 1 a bound broke, 2 usage. docs/PERFORMANCE.md lists what each
check guards.
"""
import csv
import json
import subprocess
import sys

# (check, optimized row, reference row, minimum items/s ratio)
SPEEDUPS = [
    ("inverted vs naive top_k", "BM_LocalIndexTopK/1024/8", "BM_LocalIndexNaiveTopK/1024/8", 5.0),
    ("inverted vs naive match_all", "BM_LocalIndexMatchAll/1024/8", "BM_LocalIndexNaiveMatchAll/1024/8", 5.0),
    ("vector vs scalar score_touched", "BM_KernelTopKScoreVector/1024/32", "BM_KernelTopKScoreScalar/1024/32", 1.3),
    ("vector vs scalar score_touched", "BM_KernelTopKScoreVector/8192/32", "BM_KernelTopKScoreScalar/8192/32", 1.3),
    ("bulk_join per-node rate, 1e5 vs 1e4", "BM_OverlayBulkJoin/100000", "BM_OverlayBulkJoin/10000", 0.5),
    ("bulk vs sequential join", "BM_OverlayBulkJoin/100000", "BM_OverlaySequentialJoin/100000", 1.2),
]
MICRO_ARGS = ["--benchmark_filter=^(" + "|".join(sorted({r for s in SPEEDUPS for r in s[1:3]})) + ")$",
              "--benchmark_min_time=0.1", "--benchmark_repetitions=3",
              "--benchmark_report_aggregates_only=true", "--benchmark_format=json"]
NAMING_ARGS = ["--items", "2000", "--queries", "100", "--nodes", "200", "--csv", "1"]
# (workload, strategy) -> (recall@10, msgs/query) this run printed when the
# gate was written; recall may fall 15% and messages may rise 15%.
NAMING = {("basket", "angle"): (0.07, 12.29), ("basket", "range"): (0.073, 12.86),
          ("basket", "lsh"): (0.143056, 16.95), ("synthetic", "angle"): (0.034, 5.7),
          ("synthetic", "range"): (0.037, 5.29), ("synthetic", "lsh"): (0.306, 2.56)}


def check_micro(report):
    """(line, failed) per SPEEDUPS entry, from google-benchmark JSON medians."""
    rows = {b["run_name"]: b for b in report["benchmarks"] if b.get("aggregate_name") == "median"}
    for check, fast, ref, bound in SPEEDUPS:
        if fast not in rows or ref not in rows:
            yield f"{check}: row {fast} or {ref} missing", True
        elif rows[fast].get("vector_isa") == 0:
            yield f"{check}: skipped, this host has no vector variant", False
        else:
            ratio = rows[fast]["items_per_second"] / rows[ref]["items_per_second"]
            yield f"{check} ({fast}): {ratio:.2f}x, bound >= {bound}x", ratio < bound


def check_naming(text):
    """(line, failed) per NAMING entry, from ablation_naming --csv output."""
    rows = {(r["workload"], r["strategy"]): r
            for r in csv.DictReader(line for line in text.splitlines() if "," in line)}
    for key, (recall, msgs) in NAMING.items():
        if key not in rows:
            yield f"naming {'/'.join(key)}: row missing", True
            continue
        got_recall, got_msgs = float(rows[key]["recall@10"]), float(rows[key]["msgs/query"])
        yield (f"naming {'/'.join(key)}: recall@10 {got_recall:g} (>= {0.85 * recall:g}), "
               f"msgs/query {got_msgs:g} (<= {1.15 * msgs:g})",
               got_recall < 0.85 * recall or got_msgs > 1.15 * msgs)


def failures(lines):
    return [line for line, failed in lines if failed]


def selftest():
    """Each bound must fail on a synthetic run that breaks only it."""
    def micro(isa=1, **rates):
        return {"benchmarks": [{"run_name": r, "aggregate_name": "median", "vector_isa": isa,
                                "items_per_second": rates.get(r, 1.0)}
                               for s in SPEEDUPS for r in s[1:3]]}
    good = {s[1]: 2 * s[3] for s in SPEEDUPS}
    assert failures(check_micro(micro(**good))) == []
    for _, fast, ref, bound in SPEEDUPS:  # a faster reference row breaks only its check
        broken = micro(**{**good, ref: good[fast] / (0.9 * bound)})
        assert len(failures(check_micro(broken))) == 1, (fast, ref)
    # A host without the vector variant skips those rows but not the rest.
    slow_vector = {s[1]: 1.0 for s in SPEEDUPS if "Vector" in s[1]}
    assert failures(check_micro(micro(isa=0, **{**good, **slow_vector}))) == []

    def naming(key=None, recall_scale=1.0, msgs_scale=1.0):
        lines = ["workload,strategy,recall@10,msgs/query,publish msgs/item"]
        for k, (recall, msgs) in NAMING.items():
            scale = (recall_scale, msgs_scale) if k == key else (1.0, 1.0)
            lines.append(f"{k[0]},{k[1]},{recall * scale[0]},{msgs * scale[1]},1")
        return "\n".join(lines) + "\n"
    assert failures(check_naming(naming())) == []
    for key in NAMING:
        assert len(failures(check_naming(naming(key, recall_scale=0.8)))) == 1, key
        assert len(failures(check_naming(naming(key, msgs_scale=1.2)))) == 1, key
    assert failures(check_naming(naming().replace("synthetic,lsh", "synthetic,other")))
    print("bench_gate selftest: ok (every bound fails its synthetic breach)")


def main(argv):
    if argv == ["--selftest"]:
        selftest()
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    run = lambda exe, args: subprocess.run([f"{argv[0]}/bench/{exe}"] + args, check=True,
                                           capture_output=True, text=True).stdout
    lines = list(check_micro(json.loads(run("microbench", MICRO_ARGS))))
    lines += check_naming(run("ablation_naming", NAMING_ARGS))
    for line, failed in lines:
        print(("FAIL " if failed else "ok   ") + line)
    print(f"bench_gate: {len(failures(lines))} of {len(lines)} checks failed")
    return 1 if failures(lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
