#!/usr/bin/env python3
"""Entry point of the platform benchmark, as BENCHMARK.json names it.

    python3 bench/faasm_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds faasm_bench from source into
.bench_build/ (CMake, Release), runs one measured run of --seconds wall
seconds, and prints faasm_bench's report followed, as the last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics are
the end-to-end metrics BENCHMARK.json lists (--trace 0) or its per-layer
metrics (--trace 1, a traced run; the Chrome trace goes to
.bench_build/traces/<workload>.json). Exits non-zero, without the JSON line,
when the build fails or the run does not finish, and non-zero with
"correct": false when an output check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "faasm_bench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "faasm_bench")
# Wall time the run may take beyond its budget (set-up of the last episode,
# component phase, trace writing) before it counts as hung.
GRACE_SECONDS = 100


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds faasm_bench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(os.cpu_count() or 1)
        step = ["cmake", "--build", BUILD, "--target", "faasm_bench", "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as error:
        log(f"run.py: cannot read BENCHMARK.json: {error}")
        return 1
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    if not build():
        log("run.py: build failed")
        return 1

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(results, f"{args.workload}-{args.seed}-{args.trace}.json")
    command = [BINARY, "--workload", args.workload, f"--seed={args.seed}",
               f"--seconds={args.seconds}", "--json", result_path]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace", os.path.join(traces, f"{args.workload}.json")]
    if os.path.exists(result_path):
        os.remove(result_path)
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=args.seconds + GRACE_SECONDS).returncode
    except subprocess.TimeoutExpired:
        log("run.py: faasm_bench did not finish in time")
        return 1
    try:
        with open(result_path) as f:
            report = json.load(f)
    except (OSError, ValueError) as error:
        log(f"run.py: no result from faasm_bench (exit {code}): {error}")
        return 1

    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = report["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log(f"run.py: faasm_bench did not report {spec['name']} in {spec['unit']}")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    correct = bool(report["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
