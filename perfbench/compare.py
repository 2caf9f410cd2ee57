#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file is a results file that ``run.py`` appends to.  Runs are paired in
start order within each workload.  The rule for a gain: at least
MIN_PAIRS pairs, run alternately (the side that runs first flips each pair),
the change winning at least 9 of every 10 pairs (ties count for neither
side), and a median gap larger than the parent's inter-quartile spread.  A
metric whose parent spread, as a share of its median, exceeds its bound is
*unresolved* unless every change run beats every parent run.  A change
median worse than the parent's by more than the bound is a *regression*.
The report gates nothing: it always exits 0 after printing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return sorted(runs, key=lambda r: r["started"])


def metric_specs():
    spec = json.loads(BENCHMARK_JSON.read_text())
    out = {m["name"]: dict(m, layer="end_to_end") for m in spec["end_to_end"]}
    out.update({m["name"]: dict(m, layer="per_layer") for m in spec["per_layer"]})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, alternating):
    """Classify one metric; parent and change are paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if (len(pairs) >= MIN_PAIRS and alternating and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        return "gain", wins, spread
    if bound is None:
        return "no claim", wins, spread
    if spread > bound and not all_better:
        return "unresolved", wins, spread
    if worse_by > bound:
        return "regression", wins, spread
    return "within bound", wins, spread


def _alternating(parent_runs, change_runs):
    firsts = [p["started"] < c["started"] for p, c in zip(parent_runs, change_runs)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def report(parent_path, change_path, out=sys.stdout):
    specs = metric_specs()
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    workloads = sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs})
    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "pairs", "wins", "spread", "verdict")
    print("\t".join(header), file=out)
    for workload in workloads:
        for trace in (0, 1):
            prs = [r for r in parent_runs if r["workload"] == workload and r["trace"] == trace]
            crs = [r for r in change_runs if r["workload"] == workload and r["trace"] == trace]
            n = min(len(prs), len(crs))
            if not n:
                continue
            prs, crs = prs[:n], crs[:n]
            alternating = _alternating(prs, crs)
            for name in prs[0]["metrics"]:
                spec = specs.get(name, {"better": "lower", "unit": "?"})
                pv = [r["metrics"][name]["value"] for r in prs]
                cv = [r["metrics"][name]["value"] for r in crs]
                kind, wins, spread = verdict(pv, cv, spec["better"], spec.get("bound"),
                                             alternating)
                p1, pm, p3 = quartiles(pv)
                c1, cm, c3 = quartiles(cv)
                print("\t".join([
                    workload, name, spec["unit"],
                    "%.6g [%.6g, %.6g]" % (pm, p1, p3),
                    "%.6g [%.6g, %.6g]" % (cm, c1, c3),
                    str(n), "%d/%d" % (wins, n), "%.3f" % spread,
                    kind + ("" if alternating else " (pairs not alternating)"),
                ]), file=out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
