#!/usr/bin/env python3
"""Compares two saved benchmark reports metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Reports are the files run.py saves under <build>/perfbench/results/. Two
reports are comparable only when their contexts agree on everything except
the revision (git_rev, source_digest): build type, argv, nproc, worker
count, set-ups, seed, workload, seconds, trace mode and corpus fingerprint.
Otherwise the comparison is refused (exit 2). Each metric is printed with
its ratio NEW/OLD and whether it moved past its BENCHMARK.json bound in the
worse direction (exit 1 if any did).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REVISION_KEYS = {"git_rev", "source_digest"}


def load(path):
    report = json.loads(Path(path).read_text())
    if "context" not in report:
        sys.exit(f"compare: {path} is not a benchmark report")
    return report


def context_mismatch(a, b):
    keys = (set(a) | set(b)) - REVISION_KEYS
    return sorted(k for k in keys if a.get(k) != b.get(k))


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old, new = load(argv[1]), load(argv[2])
    differ = context_mismatch(old["context"], new["context"])
    if differ:
        for key in differ:
            print(f"context differs on {key}: {old['context'].get(key)!r} "
                  f"vs {new['context'].get(key)!r}", file=sys.stderr)
        print("compare: refusing to compare reports with different contexts",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    section = "per_layer" if new["context"]["trace"] else "end_to_end"
    worse_any = False
    print(f"{'metric':40s} {'old':>14s} {'new':>14s} {'new/old':>8s}")
    for name, cell in sorted(new[section].items()):
        before = old[section].get(name, {}).get("value")
        after = cell["value"]
        ratio = after / before if before else float("nan")
        flag = ""
        meta = declared.get(name, {})
        if "bound" in meta and before:
            change = (after - before) / before
            worse = change if meta["better"] == "lower" else -change
            if worse > meta["bound"]:
                flag = "  WORSE"
                worse_any = True
        print(f"{name:40s} {before!s:>14.14} {after:14.6g} {ratio:8.3f}{flag}")
    print(f"correct: {old['correct']} -> {new['correct']}; "
          f"digest: {old['digest']} -> {new['digest']}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
