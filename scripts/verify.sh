#!/usr/bin/env bash
# Local verification matching CI, mode by mode. Modes compose: pass any
# subset and they run in gate order (lint first, like CI). Run from the
# repo root:
#
#   scripts/verify.sh                  # everything: lint + tier-1 + golden + matrix + tsan + asan
#   scripts/verify.sh --lint           # satlint + format check (CI job 1)
#   scripts/verify.sh --tier1          # build + full ctest (CI job 2)
#   scripts/verify.sh --golden         # golden snapshots + determinism/fault repeat + perfbench correctness (CI job 3)
#   scripts/verify.sh --matrix         # seeded scenario sweep + invariant catalog (CI nightly)
#   scripts/verify.sh --matrix-worlds N  # override the matrix world budget (implies --matrix)
#   scripts/verify.sh --tsan           # ThreadSanitizer pass (CI job 4)
#   scripts/verify.sh --asan           # ASan+UBSan full ctest (CI job 5)
#   scripts/verify.sh --lint --tier1   # compose any subset
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_lint=0 run_tier1=0 run_golden=0 run_matrix=0 run_tsan=0 run_asan=0
matrix_worlds=25
if [[ $# -eq 0 ]]; then
  run_lint=1 run_tier1=1 run_golden=1 run_matrix=1 run_tsan=1 run_asan=1
fi
while [[ $# -gt 0 ]]; do
  case "$1" in
    --lint)   run_lint=1 ;;
    --tier1)  run_tier1=1 ;;
    --golden) run_golden=1 ;;
    --matrix) run_matrix=1 ;;
    --matrix-worlds)
      shift
      if [[ $# -eq 0 || ! "${1}" =~ ^[0-9]+$ || "${1}" -eq 0 ]]; then
        echo "verify.sh: --matrix-worlds expects a positive integer, got '${1:-}'" >&2
        echo "usage: scripts/verify.sh [--matrix] [--matrix-worlds N] [--lint] [--tier1] [--golden] [--tsan] [--asan]" >&2
        exit 2
      fi
      matrix_worlds="$1" run_matrix=1 ;;
    --tsan)   run_tsan=1 ;;
    --asan)   run_asan=1 ;;
    --all)    run_lint=1 run_tier1=1 run_golden=1 run_matrix=1 run_tsan=1 run_asan=1 ;;
    -h|--help)
      grep '^#' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "verify.sh: unknown mode '$1' (try --lint, --tier1, --golden, --matrix, --tsan, --asan)" >&2
      exit 2
      ;;
  esac
  shift
done

# Every run states its randomized-sweep budgets up front, so a CI log or
# a bug report always records how much world/seed coverage was bought.
echo "verify: budgets — matrix worlds=${matrix_worlds} (--matrix-worlds N)," \
     "property seeds=${SATNET_PROPERTY_SEEDS:-32} (SATNET_PROPERTY_SEEDS)," \
     "tier-1 matrix sweep worlds=${SATNET_MATRIX_WORLDS:-6} (SATNET_MATRIX_WORLDS)"

if [[ "$run_lint" == 1 ]]; then
  echo "== lint: satlint determinism/concurrency gate + format check =="
  cmake -B build -S .
  cmake --build build -j "${jobs}" --target satlint
  # Full-tree sweep with every cross-TU gate CI runs: the suppression
  # baseline (drift in either direction fails — see
  # tools/satlint/suppressions.baseline), the layering DOT export
  # (compared against the committed docs/layering.dot so the diagram
  # can't go stale), and the content-keyed graph cache (kept under
  # build/ so repeat runs skip the whole-program rebuild).
  ./build/tools/satlint/satlint --root . \
    --json build/satlint-report.json \
    --baseline tools/satlint/suppressions.baseline \
    --graph build/layering.dot \
    --graph-cache build/satlint-graph.cache
  if ! cmp -s build/layering.dot docs/layering.dot; then
    echo "lint: docs/layering.dot is stale — regenerate with" >&2
    echo "      ./build/tools/satlint/satlint --root . --graph docs/layering.dot" >&2
    exit 1
  fi
  scripts/format.sh --check
fi

if [[ "$run_tier1" == 1 ]]; then
  echo "== tier-1: build + ctest =="
  cmake -B build -S .
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}"
fi

if [[ "$run_golden" == 1 ]]; then
  echo "== golden: snapshot suite + determinism/fault repeat at varying threads =="
  cmake -B build -S .
  cmake --build build -j "${jobs}" --target golden_test determinism_test fault_test
  # The flake gate: the determinism-sensitive suites run 3x, golden_test
  # additionally asserting one more thread count each round. Snapshots
  # regenerate only via `golden_test --update-golden`, never here. Each
  # round builds its epoch timelines cold, in memory.
  for threads in 1 2 8; do
    echo "-- repeat round: golden_test --threads ${threads} --"
    ./build/tests/golden_test --threads "${threads}"
    ./build/tests/fault_test
    ./build/tests/determinism_test
  done
  # Ablation round: the whole snapshot suite must be byte-identical with
  # the epoch timeline disabled (the replay equivalence oracle).
  echo "-- ablation round: golden_test --no-timeline --"
  ./build/tests/golden_test --no-timeline
  # Recorder round: the snapshot suite must be byte-identical with the
  # flight recorder enabled (observation-only oracle); the drained event
  # JSONL lands in build/ for inspection / CI artifact upload. The ring
  # holds the largest shard stream (~1.9k records), so the artifact is
  # the whole stream: any ring overflow fails the round.
  echo "-- recorder round: golden_test --recorder-out --recorder-ring 4096 --"
  ./build/tests/golden_test --recorder-out build/golden-recorder.jsonl \
    --recorder-ring 4096 | tee build/golden-recorder.log
  test -s build/golden-recorder.jsonl
  if ! grep -Eq 'flight recorder: [0-9]+ events flushed, 0 dropped' build/golden-recorder.log; then
    echo "golden: recorder round dropped events to ring overflow:" >&2
    grep 'flight recorder:' build/golden-recorder.log >&2 || true
    exit 1
  fi
  # The end-to-end benchmark must still count an injected fault as a
  # failure, and each workload must pass its own output checks at its
  # pinned seed. Correctness only: throughput is not gated here.
  echo "-- perfbench: self-check + one short run per workload --"
  python3 perfbench/run.py --self-check
  for run in ndt_campaign:7 atlas_year:11 scenario_matrix:0; do
    last="$(python3 perfbench/run.py --workload "${run%:*}" --seed "${run#*:}" --seconds 1 | tail -n 1)"
    echo "${run%:*}: ${last}"
    grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<< "${last}" ||
      { echo "golden: perfbench ${run%:*} is not correct with 0 failed" >&2; exit 1; }
  done
fi

if [[ "$run_matrix" == 1 ]]; then
  echo "== matrix: ${matrix_worlds}-world seeded sweep + invariant catalog =="
  cmake -B build -S .
  cmake --build build -j "${jobs}" --target matrix_test satnetctl
  # The sweep: every generated world must pass the whole invariant
  # catalog (thread/ablation identity, flow conservation, monotone
  # degradation, finite metrics). A failure shrinks to a minimal spec
  # and lands under build/matrix_failures/ — reproduce any seed with
  #   ./build/examples/satnetctl world --seed N --check
  rm -rf build/matrix_failures
  if ! SATNET_MATRIX_WORLDS="${matrix_worlds}" \
       SATNET_MATRIX_FAILURE_DIR=build/matrix_failures \
       ./build/tests/matrix_test; then
    echo "matrix: sweep failed — minimal failing specs in build/matrix_failures/:" >&2
    ls build/matrix_failures >&2 2>/dev/null || true
    exit 1
  fi
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== TSan: determinism + runtime + obs + fault + stats tests under ThreadSanitizer =="
  cmake -B build-tsan -S . -DSATNET_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target determinism_test runtime_test obs_test fault_test \
    stats_test
  ./build-tsan/tests/runtime_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/fault_test
  ./build-tsan/tests/determinism_test
  # Shards fork one shared const Rng concurrently; fork_stable must stay
  # a pure read.
  ./build-tsan/tests/stats_test
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== ASan+UBSan: full ctest under AddressSanitizer + UBSan =="
  cmake -B build-asan -S . -DSATNET_ASAN_UBSAN=ON
  cmake --build build-asan -j "${jobs}"
  ctest --test-dir build-asan --output-on-failure -j "${jobs}"
fi

echo "verify: OK"
