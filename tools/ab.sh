#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark (bench/e2e) between a parent
# revision and the working tree.
#
#   tools/ab.sh PARENT_REV --workload W [--pairs N] [--seed S] [--dir DIR]
#
# Exports PARENT_REV with `git archive` into DIR (default build-ab/ at the
# repo root; an earlier export of the same commit is reused), builds
# bench/e2e there and in the working tree, then makes
# N alternating pairs of runs (default 10; the side that goes first
# alternates from pair to pair) through each side's
#   bench/e2e/run.sh --workload W --seed S --trace 0
# For every end-to-end metric it prints each side's median and IQR, the
# change/parent ratio of the medians, and how many pairs the change won
# (the direction of "better" comes from BENCHMARK.json). Every run's JSON
# line is kept under DIR/results/. Exits 1 if any run fails or is not
# correct.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

usage() {
  echo "usage: $0 PARENT_REV --workload W [--pairs N] [--seed S]" \
       "[--dir DIR]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
workload=""
pairs=10
seed=0
dir="$root/build-ab"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --dir) [ $# -ge 2 ] || usage; dir=$2; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] || usage
case "$pairs" in ''|*[!0-9]*|0) usage ;; esac
command -v python3 > /dev/null || { echo "ab.sh needs python3" >&2; exit 2; }

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rev=$(git -C "$root" rev-parse --short "$parent_rev^{commit}")
parent="$dir/parent-$rev"
results="$dir/results/$workload-seed$seed"
rm -rf "$results"
mkdir -p "$results"
# A commit's export never changes, so a finished one (and its build) is
# reused by later comparisons against the same parent.
if [ ! -f "$parent/.ab-exported" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git -C "$root" archive "$rev" | tar -x -C "$parent"
  touch "$parent/.ab-exported"
fi

# Build both sides up front, so no pair pays for a compile.
for side in "$parent" "$root"; do
  echo "building bench/e2e in $side" >&2
  cmake -S "$side/bench/e2e" -B "$side/build-e2e" \
        -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$side/build-e2e" --target gpuvar_e2e -j "$(nproc)" \
        > /dev/null
done

# run_side NAME TREE PAIR: one run; its JSON line goes to the results.
run_side() {
  local out="$results/$1-$3.json"
  echo "pair $3/$pairs: $1" >&2
  if ! bash "$2/bench/e2e/run.sh" --workload "$workload" --seed "$seed" \
       --trace 0 2> "$results/$1-$3.log" |
       tail -n 1 > "$out"; then
    echo "ab.sh: $1 run of pair $3 failed; see $results/$1-$3.log" >&2
    exit 1
  fi
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run_side parent "$parent" "$i"
    run_side change "$root" "$i"
  else
    run_side change "$root" "$i"
    run_side parent "$parent" "$i"
  fi
done
# The benchmark leaves emptied files behind. They go only now: deleting
# many files slows the file creation of the runs that follow
# (bench/e2e/README.md).
rm -rf "$parent/build-e2e/work" "$root/build-e2e/work"

python3 - "$root/BENCHMARK.json" "$results" "$pairs" "$workload" "$rev" \
    "$seed" <<'EOF'
import json, statistics, sys

bench, results, pairs, workload, rev, seed = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}

def load(side, i):
    with open(f"{results}/{side}-{i}.json") as f:
        return json.loads(f.read())

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
ok = all(r["correct"] and r["failed"] == 0 for s in runs.values() for r in s)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"workload {workload}, seed {seed}, {pairs} pairs: parent {rev} vs "
      "working tree")
print(f"{'metric':<14} {'parent med':>11} {'IQR':>9} {'change med':>11} "
      f"{'IQR':>9} {'ratio':>7} {'wins':>6}")
for name, direction in better.items():
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    p1, pm, p3 = quartiles(vals["parent"])
    c1, cm, c3 = quartiles(vals["change"])
    sign = 1 if direction == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
    print(f"{name:<14} {pm:>11.2f} {p3 - p1:>9.2f} {cm:>11.2f} {c3 - c1:>9.2f} "
          f"{cm / pm:>7.3f} {wins:>3}/{pairs}")
print("all runs correct" if ok else "SOME RUNS FAILED (see the results dir)")
sys.exit(0 if ok else 1)
EOF
