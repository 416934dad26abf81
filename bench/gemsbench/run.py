#!/usr/bin/env python3
"""Builds gemsbench from source and runs its workloads.

    python3 bench/gemsbench/run.py --workload <name|all> --seed <n>
        [--seconds <s>] [--trace <0|1>] [--out <file>]
        [--gemsbench <binary> --gemsd <binary>] [--smoke]

Without --gemsbench/--gemsd the benchmark package is configured and built
into .bench_build at the repository root first; build output goes to
standard error. Each workload runs in a fresh gemsbench process. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
with --trace 0, every per_layer metric with --trace 1 (a layer the
workload does not run reads 0). --out keeps the full per-workload reports
(percentiles, sample counts, dispatch and layout provenance); with
--trace 1 each workload's span dump goes to .bench_build/trace-<workload>-
<seed>.json.

--smoke runs every workload at tiny sizes, traced, and checks that each
report carries every metric; it is the gemsbench_smoke ctest.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
WORKLOADS = ["serve_write", "serve_read", "stream_multiquery", "sketch_ingest"]
# A single workload run ends well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds gemsbench and gemsd; None on failure."""
    steps = [["cmake", "-S", str(ROOT / "bench" / "gemsbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
              "--target", "gemsbench", "gemsd"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return BUILD / "gemsbench", BUILD / "gems" / "server" / "gemsd"


def run_workload(gemsbench, gemsd, workload, seed, seconds, trace_path, smoke):
    """Runs one workload in its own process group; its report, or None."""
    cmd = [str(gemsbench), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--gemsd={gemsd}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = out.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} exited {proc.returncode} without a report")
        return None
    return json.loads(lines[-1])


def result_line(report, spec, traced):
    """The result line for one workload's report."""
    problems = []
    metrics = {}
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    measured = report["layers"] if traced else report["metrics"]
    for m in wanted:
        got = measured.get(m["name"])
        value = 0.0 if got is None and traced else (got or {}).get("value")
        if got is not None and got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if value is None or not math.isfinite(value):
            problems.append(f"{m['name']}: not measured")
            value = 0.0
        elif not traced and value <= 0:
            problems.append(f"{m['name']}: {value} is not positive")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        log(f"run.py: {report['workload']}: {p}")
    return {"correct": bool(report["correct"]) and not problems,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]) + len(problems),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--gemsbench")
    parser.add_argument("--gemsd")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log(f"run.py: {spec_path} not found")
        return 2
    spec = json.loads(spec_path.read_text())

    if args.gemsbench and args.gemsd:
        binaries = Path(args.gemsbench), Path(args.gemsd)
    else:
        binaries = build()
        if binaries is None:
            log("run.py: build failed")
            return 1

    if args.smoke:
        args.workload, args.seconds, args.trace = "all", 0.3, 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    reports, lines = [], []
    for workload in workloads:
        trace_path = None
        if args.trace:
            BUILD.mkdir(exist_ok=True)
            trace_path = BUILD / f"trace-{workload}-{args.seed}.json"
        report = run_workload(*binaries, workload, args.seed, args.seconds,
                              trace_path, args.smoke)
        if report is None:
            return 1
        reports.append(report)
        line = result_line(report, spec, args.trace == 1)
        if args.smoke:
            # Traced runs compute the end-to-end numbers as well.
            untraced = result_line(report, spec, False)
            line["correct"] = line["correct"] and untraced["correct"]
        lines.append(line)
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
        print(f"{workload}: correct={line['correct']} {shown}", flush=True)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "traced": args.trace == 1, "reports": reports}, indent=1) + "\n")
    if len(lines) == 1:
        result = lines[0]
    else:
        result = {"correct": all(l["correct"] for l in lines),
                  "attempted": sum(l["attempted"] for l in lines),
                  "failed": sum(l["failed"] for l in lines),
                  "metrics": {f"{w}.{k}": v for w, l in zip(workloads, lines)
                              for k, v in l["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
