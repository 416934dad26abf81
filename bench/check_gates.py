#!/usr/bin/env python3
"""Checks bench JSON results against the thresholds in bench/gates.json.

    python3 bench/check_gates.py [--dir DIR] [GATE ...]

Runs the named gates (all of them when none is named). Gate NAME reads
NAME.json from DIR (default: the working directory) and its thresholds
from the NAME entry of gates.json beside this script. Prints one line per
check and exits 1 if any check fails, a result file is missing, or a key a
gate reads is absent.
"""

import argparse
import json
import os
import sys


def e07_batched_vs_per_item(r, t, check):
    """The batched-vs-per-item harness wrote well-formed JSON."""


def e07_thread_scaling(r, t, check):
    """The thread-scaling harness wrote well-formed JSON."""


def e06_view_merge_fanin(r, t, check):
    check(r["roots_identical"] is True,
          "view-merge root is byte-identical to deserialize-then-merge")
    check(r["speedup"] >= t["min_speedup"],
          f"view-merge fan-in speedup {r['speedup']} "
          f"(>= {t['min_speedup']}x)")


def e07_simd_vs_scalar(r, t, check):
    level = r["dispatch"]["level"]
    if level == "scalar":
        print("  dispatch level is scalar; skipping SIMD speedup gate")
        return
    rows = {row["sketch"]: row for row in r["results"]}
    floor = t["min_batched_ingest_speedup"]
    for sketch in t["sketches"]:
        got = rows[sketch]["batched_ingest_speedup"]
        check(got >= floor, f"{sketch} batched-ingest speedup {got}x at "
                            f"dispatch level {level} (>= {floor}x)")


def e07_layout(r, t, check):
    rows = {row["sketch"]: row for row in r["results"]}
    for sketch in t["round_trip_sketches"]:
        check(rows[sketch]["round_trip_ok"] is True,
              f"{sketch} blocked layout survives the flat-wire round trip")
    got = rows["countmin"]["speedup"]
    check(got >= t["min_countmin_speedup"],
          f"countmin blocked ingest speedup {got}x flat "
          f"(>= {t['min_countmin_speedup']}x)")


def e15_server(r, t, check):
    check(r["keys"] == t["keys"], f"keys {r['keys']} (want {t['keys']})")
    check(r["connections"] == t["connections"],
          f"connections {r['connections']} (want {t['connections']})")
    by_name = {s["name"]: s for s in r["scenarios"]}
    for name in t["scenarios"]:
        s = by_name[name]
        check(s["total_requests"] > 0 and s["requests_per_sec"] > 0,
              f"{name}: {s['requests_per_sec']:.0f} req/s, "
              f"query p99 {s['query_p99_us']:.0f} us")
    ratio = r["loaded_vs_idle_query_p99"]
    check(ratio <= t["max_loaded_vs_idle_query_p99"],
          f"QUERY p99 under write load {ratio:.2f}x idle "
          f"(<= {t['max_loaded_vs_idle_query_p99']})")


def e16_time(r, t, check):
    adm = r["admission"]
    check(adm["decayed_hit_rate"] >= adm["plain_hit_rate"],
          f"admission: decayed hit rate {adm['decayed_hit_rate']:.4f} "
          f">= plain {adm['plain_hit_rate']:.4f}")
    for name, ok in r["roundtrip"].items():
        check(ok is True, f"roundtrip {name}: byte-identical")
    ing = r["ingest"]
    check(ing["sliding_hll_mops"] > 0 and ing["decayed_cm_mops"] > 0,
          f"ingest: sliding hll {ing['sliding_hll_mops']:.1f} mops, "
          f"decayed cm {ing['decayed_cm_mops']:.1f} mops")


def e17_multiquery(r, t, check):
    for row in r["sweep"]:
        check(row["results_identical"] is True,
              f"q={row['queries']} overlap={row['overlap']}: engine "
              f"results equal the independent queries'")
    gate = [row for row in r["sweep"]
            if row["queries"] == t["queries"]
            and row["overlap"] == t["overlap"]]
    check(len(gate) == 1, f"one sweep row at {t['queries']} queries / "
                          f"{t['overlap']} overlap (found {len(gate)})")
    for row in gate:
        got = row["shared_speedup"]
        check(got >= t["min_shared_speedup"],
              f"shared-ingest speedup {got:.2f}x N-independent "
              f"(>= {t['min_shared_speedup']}x), "
              f"{row['physical']} physical queries")


def e07_concurrent(r, t, check):
    readers = {(row["sketch"], row["writers"]): row
               for row in r["reader_results"]}
    row = readers[(t["reader_sketch"], t["reader_writers"])]
    got = row["reader_vs_idle_cpu"]
    check(got >= t["min_reader_vs_idle_cpu"],
          f"{t['reader_sketch']} reader at {t['reader_writers']} writers: "
          f"{got:.3f}x idle CPU (>= {t['min_reader_vs_idle_cpu']}), "
          f"staleness {row['staleness_frac_mean']:.4f}")
    for row in r["writer_results"]:
        ratio = row["concurrent_writer_mops"] / row["striped_writer_mops"]
        check(ratio >= t["min_writer_vs_striped"],
              f"{row['sketch']} writers={row['writers']}: concurrent "
              f"ingest {ratio:.2f}x striped "
              f"(>= {t['min_writer_vs_striped']}x)")


GATES = {gate.__name__: gate for gate in (
    e07_batched_vs_per_item, e07_thread_scaling, e06_view_merge_fanin,
    e07_simd_vs_scalar, e07_layout, e15_server, e16_time, e17_multiquery,
    e07_concurrent)}


def run_gate(name, thresholds, directory):
    """Returns the failure messages of gate `name`."""
    failures = []

    def check(ok, text):
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
        if not ok:
            failures.append(f"{name}: {text}")

    print(f"{name}:")
    try:
        with open(os.path.join(directory, f"{name}.json")) as f:
            result = json.load(f)
        GATES[name](result, thresholds, check)
    except (OSError, KeyError, TypeError, ValueError) as e:
        check(False, f"{type(e).__name__}: {e}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "gates.json")) as f:
        thresholds = json.load(f)
    unknown = [n for n in args.names if n not in GATES]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)}")
        return 1
    names = args.names or list(GATES)

    failures = []
    for name in names:
        failures += run_gate(name, thresholds[name], args.dir)
    if failures:
        print(f"{len(failures)} gate check(s) failed")
        return 1
    print(f"{len(names)} gate(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
