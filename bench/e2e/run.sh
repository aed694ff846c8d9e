#!/usr/bin/env bash
# End-to-end benchmark of the gpuvar pipeline (see README.md beside this
# file). Builds bench/e2e in Release under build-e2e/, then runs:
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--threads T] [--trace]
#       all four workloads in turn, each in its own process; --trace adds
#       a traced run of each after its untraced one
#   bench/e2e/run.sh --smoke
#       all four workloads at 2% coverage, one rep each, seeds 0 and 1;
#       exits non-zero if any op fails its check
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its JSON result
#
# Results land in build-e2e/results/. Build output goes to stderr.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/build-e2e"
workloads=(summit-sgemm summit-resnet summit-store summit-query)

usage() {
  echo "usage: $0 [--workload NAME] [--seed N] [--seconds S] [--threads T]" \
       "[--trace [0|1]] [--smoke]" >&2
  exit 2
}

seeds=(0)
seconds=28
trace=0
smoke=0
only=""
threads=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; only=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seeds=("$2"); shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --threads) [ $# -ge 2 ] || usage; threads=$2; shift 2 ;;
    --trace)
      if [ "${2-}" = 0 ] || [ "${2-}" = 1 ]; then
        trace=$2
        shift 2
      else
        trace=1
        shift
      fi
      ;;
    --smoke) smoke=1; seeds=(0 1); shift ;;
    *) usage ;;
  esac
done
if [ -n "$only" ]; then
  case " ${workloads[*]} " in
    *" $only "*) workloads=("$only") ;;
    *) echo "unknown workload $only" >&2; usage ;;
  esac
fi

cores=$(nproc)
if [ -z "$threads" ]; then
  threads=$(( cores < 4 ? cores : 4 ))
fi

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target gpuvar_e2e -j "$threads" >&2
mkdir -p "$build/results"

# run_one WORKLOAD SEED TRACED
run_one() {
  local tag="$1-seed$2"
  [ "$3" = 1 ] && tag="$tag-trace"
  # A new work dir per run: the binary empties its files when it ends
  # but deletes none of them (pipeline.cpp says why).
  mkdir -p "$build/work"
  local work
  work=$(mktemp -d "$build/work/$1.XXXXXX")
  local args=(--workload "$1" --seed "$2" --threads "$threads"
              --work-dir "$work" --json "$build/results/$tag.json"
              --seconds "$seconds")
  [ "$3" = 1 ] && args+=(--trace "$build/results/$tag-spans.json")
  [ "$smoke" = 1 ] && args+=(--smoke)
  "$build/gpuvar_e2e" "${args[@]}"
}

status=0
for seed in "${seeds[@]}"; do
  for w in "${workloads[@]}"; do
    if [ -n "$only" ]; then
      # One workload, one run: its result line must end stdout.
      run_one "$w" "$seed" "$trace" || status=$?
      continue
    fi
    run_one "$w" "$seed" 0 || status=1
    if [ "$trace" = 1 ]; then
      run_one "$w" "$seed" 1 || status=1
    fi
  done
done
exit "$status"
