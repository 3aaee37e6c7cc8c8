#!/usr/bin/env python3
"""End-to-end benchmark of the checkpoint/restart pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cr-file --seed 1 --seconds 15 --trace 0

Builds perfbench/ (a CMake package over the repository's src/) into
.bench_build/perfbench, runs the self-test of the timing decorator, runs one
workload and prints every metric it measured as a table (name, value, unit,
sample count).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
Exits non-zero, without a result line, when anything fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DEADLINE_S = 170  # the whole invocation, once the build is done
BUILD_TIMEOUT_S = 850
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no scrutiny sources under {ROOT / 'src'}", 2)
    configure = [
        "cmake", "-S", str(BENCH_DIR), "-B", str(out),
        "-DCMAKE_BUILD_TYPE=Release",
    ]
    steps = [] if (out / "CMakeCache.txt").is_file() else [configure]
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    selftest = subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT,
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60, check=False)
    if selftest.returncode != 0:
        fail("timing decorator self-test failed")


def print_table(title, rows):
    print(title)
    for name, metric in rows:
        samples = metric.get("samples", 0)
        note = "" if samples else "  (not measured on this workload)"
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:<6s}"
              f" n={samples}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root", 2)
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {workloads})", 2)

    out = build_dir()
    build(out)

    started = time.monotonic()
    work = out.parent / "perfbench-work" / str(os.getpid())
    traces = out.parent / "perfbench-traces"
    command = [
        str(out / "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work),
        "--trace-out",
        str(traces / f"{args.workload}.jsonl"),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_DEADLINE_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload exceeded {RUN_DEADLINE_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])
    measured = result["metrics"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            selected[name] = measured[name]
        elif args.trace:
            # A row this workload does not measure (serve on cr-file, the
            # C/R ckpt rows on analyze-npb): zero, from zero samples.
            selected[name] = {"value": 0.0, "unit": entry["unit"],
                              "samples": 0}
        else:
            fail(f"workload {args.workload} did not measure {name}")
        if selected[name]["unit"] != entry["unit"]:
            fail(f"{name}: unit {selected[name]['unit']} != {entry['unit']}")

    known = [(n, m) for n, m in measured.items() if n.startswith("known.")]
    other = [(n, m) for n, m in measured.items()
             if n not in selected and not n.startswith("known.")]
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"{time.monotonic() - started:.1f} s wall")
    print_table(f"{kind} metrics:",
                [(n, m) for n, m in selected.items()
                 if not n.startswith("known.")])
    if other:
        print_table("also measured:", other)
    if known:
        print_table("known defects (untimed probe, see perfbench/NOTES.md):",
                    known)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in selected.items()},
    }))


if __name__ == "__main__":
    main()
