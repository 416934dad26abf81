#!/usr/bin/env python3
"""Compares two sets of gemsbench runs metric by metric.

    python3 bench/gemsbench/compare.py <base_dir> <change_dir> [--spec BENCHMARK.json]

Each directory holds run JSON files written by `run.py --out` (untraced).
For every workload and end-to-end metric it prints both sides' median and
quartiles, the fraction of seed-paired runs the change won, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the base's own
              quartile spread, in the better direction;
  regressed   the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's run-to-run spread (quartile distance over median)
              is wider than the bound, and not every change run reads
              better than every base run;
  unchanged   otherwise.

A regression is also reported when the change failed more operations than
the base. The exit code is 1 if anything regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """{workload: {seed: report}} from every run file in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("traced"):
            continue
        for report in data.get("reports", []):
            runs.setdefault(report["workload"], {})[report["seed"]] = report
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, change, bound, higher_is_better):
    sign = 1.0 if higher_is_better else -1.0
    b_lo, b_med, b_hi = quartiles(base)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = (b_hi - b_lo) / abs(b_med) if b_med else float("inf")
    worse = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    all_worse = all(sign * (c - b) < 0 for b in base for c in change)
    if won >= 0.9 and sign * (c_med - b_med) > (b_hi - b_lo):
        return "improved", won
    if worse > bound:
        return ("regressed" if spread <= bound or all_worse
                else "unresolved"), won
    if spread > bound and not all_better:
        return "unresolved", won
    return "unchanged", won


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=str(
        Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    base, change = load_runs(args.base), load_runs(args.change)

    regressed = False
    header = (f"{'workload':18} {'metric':15} {'base q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    print(header)
    for workload in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        if not seeds:
            print(f"{workload:18} no runs on both sides")
            continue
        b_fail = sum(b_runs[s]["failed"] for s in seeds)
        c_fail = sum(c_runs[s]["failed"] for s in seeds)
        if c_fail > b_fail:
            regressed = True
            print(f"{workload:18} {'failed':15} {b_fail:>32} {c_fail:>32} "
                  f"{'':>5}  regressed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [b_runs[s]["metrics"][name]["value"] for s in seeds]
            c = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            result, won = verdict(b, c, metric["bound"],
                                  metric["better"] == "higher")
            regressed = regressed or result == "regressed"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"{workload:18} {name:15} {fmt(b):>32} {fmt(c):>32} "
                  f"{won:5.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
