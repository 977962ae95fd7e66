"""Summarize untraced run records across seeds, and optionally save a baseline.

Reads ``perfbench/out/BENCH_<workload>_seed<n>_trace0.json`` as run.py
writes them and prints, per workload and end-to-end metric, the median,
the quartiles and the spread (interquartile distance over the median).

    python3 perfbench/summarize.py
    python3 perfbench/summarize.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_records():
    by_workload = {}
    for path in sorted((HERE / "out").glob("BENCH_*_trace0.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["meta"]["workload"], []).append(record)
    return by_workload


def summarize(records):
    """{metric: {median, q1, q3, spread, unit, runs}} over the records."""
    out = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "unit": records[0]["metrics"][name]["unit"],
            "runs": len(values),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help="save the medians to perfbench/baseline.json")
    args = parser.parse_args(argv)
    by_workload = load_records()
    summary = {}
    commits = set()
    for workload, records in sorted(by_workload.items()):
        if len(records) < 2:
            continue
        commits.update(r["meta"]["commit"] for r in records)
        summary[workload] = summarize(records)
        seeds = sorted(r["meta"]["seed"] for r in records)
        print(f"{workload}: {len(records)} runs, seeds {seeds}")
        for name, s in summary[workload].items():
            print(f"  {name:<12} median {s['median']:>10.4f} {s['unit']:<8}"
                  f" q1 {s['q1']:>10.4f}  q3 {s['q3']:>10.4f}"
                  f"  spread {s['spread']:.4f}")
    if args.write_baseline:
        if len(commits) != 1:
            raise SystemExit(f"records span commits {sorted(map(str, commits))}")
        meta = next(iter(by_workload.values()))[0]["meta"]
        baseline = {
            "commit": commits.pop(),
            "python": meta["python"],
            "nproc": meta["nproc"],
            "cpu": meta["cpu"],
            "workloads": {
                w: {name: s["median"] for name, s in metrics.items()}
                for w, metrics in summary.items()
            },
            "spread": {
                w: {name: s["spread"] for name, s in metrics.items()}
                for w, metrics in summary.items()
            },
            "runs": {w: len(by_workload[w]) for w in summary},
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
