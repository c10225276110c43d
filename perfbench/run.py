#!/usr/bin/env python3
"""Host-time benchmark of the TSHMEM library (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the driver from source into
.bench_build/ (first run only), runs the workload and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics; --trace 1 runs the
workload untraced for 1.5 S seconds and traced for S/2, then takes each other
layer's numbers from a short traced run of the workload that carries that
layer, each in its own process. Exits
non-zero when any virtual-time golden or output check failed, or when the
build is impossible (no library sources next to this directory).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ["job-churn", "pe-sync", "fft2d", "serve"]
# Traced seconds of each other workload in a --trace 1 run, enough for each
# percentile's tail support: about 100 jobs for sim.spawn_skew_us.p90, 20
# transforms for apps.fft.spmd_ms. Their untraced phase is PROBE_UNTRACED.
PROBE_SECONDS = {"job-churn": 3.0, "pe-sync": 1.0, "fft2d": 5.0,
                 "serve": 1.0}
PROBE_UNTRACED = 0.5
# Per-layer metrics that describe the requested workload's own process.
OWN_PREFIXES = ("proc.", "trace.", "step_ms.")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "tshmem", "runtime.hpp")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def run_driver(workload, seed, seconds, trace, traced_seconds=0.0):
    """Runs one driver process; returns its result object (None on a crash)."""
    report = os.path.join(OUT_DIR, f"report-{workload}-trace{trace}.json")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--traced-seconds", str(traced_seconds), "--goldens", GOLDENS,
           "--report", report, "--spans-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} driver timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} driver exited {proc.returncode} "
            "without a result")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace == 1:
        # The untraced phase runs longer so that step_ms.p90 keeps ten
        # steps beyond it on the slowest-stepping workload (fft2d).
        result = run_driver(args.workload, args.seed, 1.5 * args.seconds, 1,
                            args.seconds / 2)
    else:
        result = run_driver(args.workload, args.seed, args.seconds, 0)
    if result is None:
        sys.exit(1)
    if args.trace == 1:
        for other in WORKLOADS:
            if other == args.workload:
                continue
            probe = run_driver(other, args.seed, PROBE_UNTRACED, 1,
                               PROBE_SECONDS[other])
            if probe is None:
                sys.exit(1)
            result["correct"] = result["correct"] and probe["correct"]
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            for name, metric in probe["metrics"].items():
                if not name.startswith(OWN_PREFIXES):
                    result["metrics"][name] = metric
    result["metrics"] = dict(sorted(result["metrics"].items()))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
