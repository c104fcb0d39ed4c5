#!/usr/bin/env python3
"""End-to-end benchmark of satnetperf: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload ndt_campaign --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (which pulls in the
library from the parent directory) into .bench_build/ with the
RelWithDebInfo build type; later calls rebuild incrementally. Build
output goes to stderr. The harness then runs the workload in its own
process and its stdout is passed through: the last line is one JSON
object with the keys correct, attempted, failed and metrics. Reports and
span files land in .bench_out/.

Workloads (4 threads each; see BENCHMARK.json for why each exists):
  ndt_campaign     synth::World -> mlab::run_campaign (volume 0.004) ->
                   snoid::run_pipeline -> io::export_ndt; seed = CampaignConfig::seed
  atlas_year       ripe::run_atlas_campaign (366 days, 8-hour cadence) ->
                   io::export_traceroutes; seed = AtlasConfig::seed
  scenario_matrix  400 generated worlds (100 with SGP4), each
                   synth::generate_scenario -> matrix::check_spec at thread
                   counts {1, 4}; seed = stride base

--self-check runs every workload with an injected fault (a corrupted
export digest; the flow_bytes mutation for the matrix) and checks that
every operation is counted as failed and no item as done.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "satnet_perfbench")
WORKLOADS = ("ndt_campaign", "atlas_year", "scenario_matrix")
RUN_TIMEOUT_S = 175
# Seeds whose export digests the harness pins; the self-check needs them
# so a corrupted digest is caught on its first pass.
DEFAULT_SEEDS = {"ndt_campaign": 7, "atlas_year": 11, "scenario_matrix": 0}


def build():
    """Configures (once per source location) and builds the harness.
    Compiler temporaries go under the build tree, not the system's."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [BENCH_DIR]:
            shutil.rmtree(BUILD_DIR)  # configured for another checkout
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "satnet_perfbench", "-j4"],
                   check=True, stdout=sys.stderr, env=env)


def run(args, inject=False):
    """Runs the harness; returns (exit code, stdout text). With inject,
    every pass produces a wrong output (see self_check)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if inject:
        cmd.append("--inject")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def result_line(stdout):
    """The final JSON object, or None when it is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_check():
    """Runs each workload with --inject. The export workloads must fail
    every operation and count no item; the matrix must fail at least one
    world (worlds without a TCP flow have no bytes to corrupt) and count
    exactly the worlds that passed."""
    ok = True
    for workload in WORKLOADS:
        seed = DEFAULT_SEEDS[workload]
        code, stdout = run(argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=0),
                           inject=True)
        result = result_line(stdout)
        report = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace0.json")
        items = None
        if code == 0 and result is not None and os.path.exists(report):
            with open(report, encoding="utf-8") as f:
                items = json.load(f)["items"]
        counted = items is not None and not result["correct"] and result["failed"] > 0
        if counted and workload == "scenario_matrix":
            counted = items == result["attempted"] - result["failed"]
        elif counted:
            counted = result["failed"] == result["attempted"] and items == 0
        detail = (f"failed {result['failed']} of {result['attempted']}, {items} items counted"
                  if items is not None else "no result")
        print(f"{workload}: injected fault -> {detail}  {'OK' if counted else 'NOT COUNTED'}")
        ok = ok and counted
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="show that injected faults are counted as failures")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_check:
        return 0 if self_check() else 1

    try:
        code, stdout = run(args)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if code != 0 or result_line(stdout) is None:
        sys.stderr.write(stdout)
        print(f"run.py: harness exited {code} without a result line", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
