#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 25 \
        --trace 0

The first call configures and compiles perfbench/ (the repo's relax_core
library plus the pass binary relax_perfbench, Release) into .bench_build/;
later calls only re-run the incremental build. Build output goes to stderr.

--trace 0 runs passes of the workload, each in a fresh relax_perfbench
process, until --seconds is used up (at least one). Every pass must agree
exactly on the simulated metrics and counts. Host metrics are medians over
the run, at yardstick speed (see README.md). It prints the end-to-end
metrics listed in BENCHMARK.json.

--trace 1 runs one untraced and one traced pass, asserts they agree exactly
on the simulated metrics, and prints the per-layer metrics; a listed metric
the traced pass did not report, or a reported one BENCHMARK.json does not
list, fails the run. Host times of layers come from the untraced pass;
trace.overhead_ms is the traced pass's extra host time. The traced pass's
host spans go to .bench_build/traces/.

A table goes to stderr. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is non-zero,
with no result printed, when the build or a pass process fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "relax_perfbench"
PASS_TIMEOUT_S = 170


class PassFailed(Exception):
    pass


def build():
    """Configures (once) and builds both binaries; True on success."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_cmd = ["cmake", "--build", str(BUILD), "--target",
                   "relax_perfbench", "relax_perfbench_yardstick",
                   "-j", str(min(4, os.cpu_count() or 1))]
    if not (BUILD / "CMakeCache.txt").exists():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0:
        return True
    # A cache left by another checkout location cannot be reused.
    shutil.rmtree(BUILD, ignore_errors=True)
    return (subprocess.run(configure, stdout=sys.stderr).returncode == 0 and
            subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0)


def run_pass(workload, seed, traced, deadline):
    """One pass in a fresh relax_perfbench process; returns its report."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass exceeded {timeout:.0f} s")
    if result.returncode != 0:
        raise PassFailed(f"relax_perfbench exited with {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    try:
        if args.trace:
            passes = [run_pass(args.workload, args.seed, traced, deadline)
                      for traced in (False, True)]
        else:
            # Stop before a pass that would overrun the run time.
            passes = []
            last = 0.0
            while not passes or time.monotonic() - start + last <= args.seconds:
                t0 = time.monotonic()
                passes.append(run_pass(args.workload, args.seed, False,
                                       deadline))
                last = time.monotonic() - t0
    except (PassFailed, ValueError, IndexError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    errors = [e for p in passes for e in p["errors"]]
    if any(p["sim"] != passes[0]["sim"] for p in passes):
        errors.append("traced pass changed simulated metrics" if args.trace
                      else "repeated passes disagree on simulated metrics")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = sum(p["mismatches"] for p in passes)

    if args.trace:
        untraced, traced = passes
        values = dict(traced["layer"])
        # Tracing the device slows every step and call: host times of
        # layers come from the untraced pass.
        values.update({k: v for k, v in untraced["layer"].items()
                       if "host_us" in k})
        values["trace.overhead_ms"] = (traced["host_us"] - traced["check_us"]
                                       - untraced["host_us"]) / 1e3
        defs = spec["per_layer"]
        listed = {d["name"] for d in defs}
        errors += [f"metric {name} is not listed in BENCHMARK.json"
                   for name in sorted(values) if name not in listed]
    else:
        values = dict(passes[0]["sim"])
        values["setup_s"] = statistics.median(
            s for p in passes for s in p["setup_s"])
        values["host_tok_s"] = statistics.median(
            t for p in passes for t in p["host_tok_s"])
        values["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)
        defs = spec["end_to_end"]
    errors += [f"missing metric {d['name']}" for d in defs
               if d["name"] not in values]

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace} host slowdown="
          f"{statistics.median(p['slowdown'] for p in passes):.3f}",
          file=sys.stderr)
    metrics = {}
    for d in defs:
        value = values.get(d["name"])  # None (null) when missing
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        shown = "missing" if value is None else f"{value:.6f}"
        print(f"  {d['name']:36s} {shown:>18s} {d['unit']}", file=sys.stderr)
    if not args.trace:
        for name, value in sorted(passes[0]["sim"].items()):
            if name.startswith("count."):
                print(f"  {name:36s} {value:18.6f}", file=sys.stderr)
    print(f"  {'output_mismatch':36s} {mismatches:18d}\n"
          f"  {'failed_frac':36s} {failed / max(attempted, 1):18.6f}",
          file=sys.stderr)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors and mismatches == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
