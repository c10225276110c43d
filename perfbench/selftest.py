#!/usr/bin/env python3
"""Self-tests of the host-time benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py [--seconds S]

Run from the repository root. Three checks:

1. Fresh seed: every workload, traced and untraced, passes every golden and
   output check with a seed drawn at random now (so not one used while the
   benchmark was written).
2. Tail support: every percentile those runs report has at least ten
   samples beyond it.
3. Perturbed golden: with a golden value every run checks changed by one,
   the driver reports the mismatch, prints correct=false and exits
   non-zero.

Exits non-zero if any check fails.
"""

import argparse
import json
import os
import random
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import DRIVER, HERE, OUT_DIR, OWN_PREFIXES, ROOT, WORKLOADS  # noqa: E402
# Goldens per workload of which every run checks at least one, whatever
# its seed.
PERTURB = {
    "job-churn": ["barrier/0"],
    "pe-sync": ["round/8"],
    "fft2d": [f"input/{i}/total_ps" for i in (2013, 2014, 2015, 2016)],
    "serve": ["calibration/shard0/per_query_ps"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def reports(workload, trace):
    """Driver reports behind one run.py call, with the metric names run.py
    takes from each (it keeps only the layer metrics of the other
    workloads' processes)."""
    names = [workload] if trace == 0 else WORKLOADS
    for name in names:
        with open(os.path.join(OUT_DIR, f"report-{name}-trace{trace}.json"),
                  encoding="utf-8") as f:
            report = json.load(f)
        if name != workload:
            report["metrics"] = {
                k: v for k, v in report["metrics"].items()
                if not k.startswith(OWN_PREFIXES)}
        yield report


def tail_support(report):
    for name, m in report["metrics"].items():
        if m["samples"] == 0:
            continue
        beyond = m["samples"] * (1.0 - m["q"])
        check(beyond >= 10, f"{report['workload']}: {name} has "
              f"{beyond:.0f} samples beyond p{100 * m['q']:g}")


def perturbed_golden(workload):
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as f:
        goldens = json.load(f)
    keys = PERTURB[workload]
    for key in keys:
        goldens["workloads"][workload][key] += 1
    path = os.path.join(OUT_DIR, "goldens-perturbed.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(goldens, f)
    report = os.path.join(OUT_DIR, "report-perturbed.json")
    proc = subprocess.run(
        [DRIVER, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0", "--goldens", path, "--report", report],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(report, encoding="utf-8") as f:
        errors = json.load(f)["errors"]
    check(proc.returncode != 0 and not result["correct"] and
          any(key in e for e in errors for key in keys),
          f"{workload}: perturbed golden {keys[0]} fails the run")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        default_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=default_seconds)
    args = ap.parse_args()

    seed = random.SystemRandom().randrange(1_000_000, 2**62)
    print(f"fresh seed {seed}", flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_bench(workload, seed, args.seconds, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: all goldens match "
                  f"({result['attempted']} checked)")
            for report in reports(workload, trace):
                tail_support(report)
    for workload in WORKLOADS:
        perturbed_golden(workload)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
