#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tpcc-fresh --seed 1 --seconds 30 --trace 0

The workloads are those of BENCHMARK.json plus UNGATED_WORKLOADS, which run
the same way but are left out of the benchmark (see README.md).

Builds the AETS library and the benchmark program from source into
.bench_build/ (a no-op once built), runs one workload, checks the result
against BENCHMARK.json, and prints the result JSON as the last line of
standard output. --trace 0 reports the end-to-end metrics of an untraced
run; --trace 1 adds a traced run and reports the per-layer metrics, writing
its spans to .bench_build/traces/. Exits non-zero, without a result line,
when the build or the run fails, and with "correct": false when the
correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "cmake")
BENCH = os.path.join(BUILD, "htap_bench")
SELFTEST = os.path.join(BUILD, "htap_bench_selftest")
RUN_TIMEOUT_S = 170
# Too noisy on a shared machine to gate: the catch-up drain saturates every
# vCPU, so its figures follow the host's load (see README.md).
UNGATED_WORKLOADS = ("bus-catchup",)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads(bench):
    """Every workload run.py accepts: the gated ones first."""
    return [w["name"] for w in bench["workloads"]] + list(UNGATED_WORKLOADS)


def build():
    """Configures and builds the benchmark; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "htap_bench",
         "htap_bench_selftest"],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd[:2]))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark program once; returns (exit code, human lines, result dict)."""
    tag = f"{workload}-seed{seed}"
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(BUILD_ROOT, f"run-{os.getpid()}-{tag}"),
           "--trace-out", os.path.join(BUILD_ROOT, "traces", tag + ".jsonl")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def check_result(result, trace, bench):
    """Problems with the result's shape against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics missing {missing} extra {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: expected unit {m['unit']}, got {got}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{m['name']}: value is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = spec()
    if args.workload not in workloads(bench):
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2
    try:
        build()
        code, lines, result = run_workload(args.workload, args.seed, args.seconds,
                                           args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    print("\n".join(lines))
    if result is None:
        sys.stderr.write(f"benchmark exited {code} without a result\n")
        return 1
    problems = check_result(result, args.trace, bench)
    for p in problems:
        sys.stderr.write(f"result check: {p}\n")
    if problems:
        return 1
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
