#!/usr/bin/env bash
# A/B comparison between a parent revision and the working tree, of the
# end-to-end benchmark (bench/e2e) or of any command.
#
#   tools/ab.sh PARENT_REV --workload W [--pairs N] [--seed S] [--dir DIR]
#               [--claim METRIC]
#   tools/ab.sh PARENT_REV [--pairs N] [--dir DIR] -- CMD...
#
# Exports PARENT_REV with `git archive` into DIR (default build-ab/ at the
# repo root; an earlier export of the same commit is reused), builds
# bench/e2e there and in the working tree, then makes
# N alternating pairs of runs (default 10; the side that goes first
# alternates from pair to pair) through each side's
#   bench/e2e/run.sh --workload W --seed S --trace 0
# For every end-to-end metric it prints each side's median and IQR, the
# change/parent ratio of the medians, and how many pairs the change won
# (the direction of "better" and each metric's bound come from
# BENCHMARK.json), then a verdict:
#   the claimed METRIC   gain     the change won at least 9 of every 10
#                                 pairs and its median is better than the
#                                 parent's by more than the parent's IQR
#                        no gain  otherwise
#   every other metric   worse beyond bound  the change's median is worse
#                                 than the parent's by more than the bound
#                        unresolved  otherwise, if the parent's IQR is
#                                 wider than the bound and some run of
#                                 the change reads no better than some
#                                 run of the parent
#                        within bound  otherwise
# Bounds and IQRs are relative to the parent's median. A second table
# gives the same medians, IQRs, ratios and wins for every detail the
# workload timed: the unscaled setup and op wall times, the reference
# kernel, and each part of the op (for summit-query csv_roundtrip_ms,
# query_cold_ms, ...), so a change in op_ms can be traced to its part.
# Every run's JSON line and full results file
# (build-e2e/results/W-seedS.json) are kept under DIR/results/. Exits 1
# if any run fails or is not correct.
#
# The `-- CMD` form builds a Release `gpuvar` on both sides instead and
# runs CMD in N alternating pairs, with `{gpuvar}` replaced by the side's
# binary and `{out}` by a fresh path of the run (made a directory first
# when CMD names `{out}/...`). It prints each side's wall-time median and
# IQR and the pairs the change won, then compares every pair's {out}:
# `cmp` for a file, `diff -r` for a directory. Exits 1 if any run fails
# or any pair's outputs differ. CMD runs in DIR/results/cmd/, where each
# run's stdout and stderr are kept.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

usage() {
  echo "usage: $0 PARENT_REV --workload W [--pairs N] [--seed S]" \
       "[--dir DIR] [--claim METRIC]" >&2
  echo "       $0 PARENT_REV [--pairs N] [--dir DIR] -- CMD..." >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
workload=""
pairs=10
seed=0
dir="$root/build-ab"
claim=""
cmd=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --dir) [ $# -ge 2 ] || usage; dir=$2; shift 2 ;;
    --claim) [ $# -ge 2 ] || usage; claim=$2; shift 2 ;;
    --) shift; [ $# -ge 1 ] || usage; cmd=("$@"); break ;;
    *) usage ;;
  esac
done
# Exactly one of the two forms; --seed and --claim belong to bench/e2e.
if [ ${#cmd[@]} -gt 0 ]; then
  [ -z "$workload" ] && [ -z "$claim" ] && [ "$seed" = 0 ] || usage
else
  [ -n "$workload" ] || usage
fi
case "$pairs" in ''|*[!0-9]*|0) usage ;; esac
command -v python3 > /dev/null || { echo "ab.sh needs python3" >&2; exit 2; }
if [ -n "$claim" ] && ! python3 -c '
import json, sys
sys.exit(sys.argv[2] not in [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]])
' "$root/BENCHMARK.json" "$claim"; then
  echo "ab.sh: --claim $claim is not an end-to-end metric of BENCHMARK.json" >&2
  exit 2
fi

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rev=$(git -C "$root" rev-parse --short "$parent_rev^{commit}")
parent="$dir/parent-$rev"
if [ ${#cmd[@]} -gt 0 ]; then
  results="$dir/results/cmd"
else
  results="$dir/results/$workload-seed$seed"
fi
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

if [ ${#cmd[@]} -gt 0 ]; then
  # Build both sides up front, so no pair pays for a compile.
  for side in "$parent" "$root"; do
    echo "building gpuvar in $side" >&2
    cmake -S "$side" -B "$side/build-ab-release" -DCMAKE_BUILD_TYPE=Release \
          > /dev/null
    cmake --build "$side/build-ab-release" --target gpuvar_cli -j "$(nproc)" \
          > /dev/null
  done

  # run_cmd NAME TREE PAIR: one run of CMD; its start and end times go
  # to the results.
  run_cmd() {
    local out="$results/$1-$3.out"
    local argv=() arg t0
    for arg in "${cmd[@]}"; do
      arg=${arg//\{gpuvar\}/$2/build-ab-release/tools/gpuvar}
      argv+=("${arg//\{out\}/$out}")
    done
    case " ${cmd[*]}" in *"{out}/"*) mkdir -p "$out" ;; esac
    echo "pair $3/$pairs: $1" >&2
    t0=$EPOCHREALTIME
    if ! (cd "$results" && "${argv[@]}") > "$results/$1-$3.log" 2>&1; then
      echo "ab.sh: $1 run of pair $3 failed; see $results/$1-$3.log" >&2
      exit 1
    fi
    echo "$t0 $EPOCHREALTIME" > "$results/$1-$3.time"
  }

  differ=0
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
      run_cmd parent "$parent" "$i"
      run_cmd change "$root" "$i"
    else
      run_cmd change "$root" "$i"
      run_cmd parent "$parent" "$i"
    fi
    p="$results/parent-$i.out"
    c="$results/change-$i.out"
    if [ -d "$p" ]; then
      diff -r "$p" "$c" > /dev/null || differ=$i
    elif [ -e "$p" ] || [ -e "$c" ]; then
      cmp -s "$p" "$c" || differ=$i
    fi
    [ "$differ" != "$i" ] || echo "pair $i: outputs differ" >&2
  done

  python3 - "$results" "$pairs" "$rev" "$differ" "${cmd[*]}" <<'EOF'
import statistics, sys

results, pairs, rev, differ, cmd = sys.argv[1:]
pairs = int(pairs)

def wall(side, i):
    t0, t1 = open(f"{results}/{side}-{i}.time").read().split()
    return float(t1) - float(t0)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

runs = {s: [wall(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
p1, pm, p3 = quartiles(runs["parent"])
c1, cm, c3 = quartiles(runs["change"])
wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
print(f"{cmd}")
print(f"{pairs} pairs: parent {rev} vs working tree")
print(f"{'metric':<14} {'parent med':>11} {'IQR':>9} {'change med':>11} "
      f"{'IQR':>9} {'ratio':>7} {'wins':>6}")
print(f"{'wall_s':<14} {pm:>11.3f} {p3 - p1:>9.3f} {cm:>11.3f} {c3 - c1:>9.3f} "
      f"{cm / pm:>7.3f} {wins:>3}/{pairs}")
print("outputs identical on every pair" if differ == "0"
      else "OUTPUTS DIFFER (see the results dir)")
sys.exit(0 if differ == "0" else 1)
EOF
  exit
fi

# Build both sides up front, so no pair pays for a compile.
for side in "$parent" "$root"; do
  echo "building bench/e2e in $side" >&2
  cmake -S "$side/bench/e2e" -B "$side/build-e2e" \
        -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$side/build-e2e" --target gpuvar_e2e -j "$(nproc)" \
        > /dev/null
done

# run_side NAME TREE PAIR: one run; its JSON line and its full results
# file go to the results.
run_side() {
  local out="$results/$1-$3.json"
  echo "pair $3/$pairs: $1" >&2
  if ! bash "$2/bench/e2e/run.sh" --workload "$workload" --seed "$seed" \
       --trace 0 2> "$results/$1-$3.log" |
       tail -n 1 > "$out"; then
    echo "ab.sh: $1 run of pair $3 failed; see $results/$1-$3.log" >&2
    exit 1
  fi
  cp "$2/build-e2e/results/$workload-seed$seed.json" "$results/$1-$3.full.json"
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
    "$seed" "$claim" <<'EOF'
import json, statistics, sys

bench, results, pairs, workload, rev, seed, claim = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]
better = {m["name"]: m["better"] for m in metrics}
bound = {m["name"]: m["bound"] for m in metrics}

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

def verdict(name, vals, pm, piqr, cm, wins, sign):
    # Gaps and spreads relative to the parent's median, as BENCHMARK.json
    # states its bounds. Ties win for neither side.
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if name == claim:
        return ("gain" if 10 * wins >= 9 * pairs and -sign * (cm - pm) > piqr
                else "no gain")
    if worse_by > bound[name]:
        return "worse beyond bound"
    all_better = all(sign * (c - p) < 0
                     for c in vals["change"] for p in vals["parent"])
    if pm and piqr / abs(pm) > bound[name] and not all_better:
        return "unresolved"
    return "within bound"

print(f"workload {workload}, seed {seed}, {pairs} pairs: parent {rev} vs "
      "working tree")
print(f"{'metric':<14} {'parent med':>11} {'IQR':>9} {'change med':>11} "
      f"{'IQR':>9} {'ratio':>7} {'wins':>6}  verdict")
for name, direction in better.items():
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    p1, pm, p3 = quartiles(vals["parent"])
    c1, cm, c3 = quartiles(vals["change"])
    sign = 1 if direction == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
    print(f"{name:<14} {pm:>11.2f} {p3 - p1:>9.2f} {cm:>11.2f} {c3 - c1:>9.2f} "
          f"{cm / pm:>7.3f} {wins:>3}/{pairs}  "
          f"{verdict(name, vals, pm, p3 - p1, cm, wins, sign)}")

# The details: every timed part the full results files of both sides
# carry beyond the gated metrics. All are times, so lower is better.
full = {s: [json.load(open(f"{results}/{s}-{i}.full.json"))["metrics"]
            for i in range(1, pairs + 1)] for s in runs}
details = [name for name in full["parent"][0]
           if name not in better
           and all(name in m for s in full.values() for m in s)]
if details:
    print(f"{'detail':<18} {'parent med':>11} {'IQR':>9} {'change med':>11} "
          f"{'IQR':>9} {'ratio':>7} {'wins':>6}")
for name in details:
    vals = {s: [m[name]["value"] for m in full[s]] for s in full}
    p1, pm, p3 = quartiles(vals["parent"])
    c1, cm, c3 = quartiles(vals["change"])
    wins = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
    ratio = f"{cm / pm:>7.3f}" if pm else f"{'-':>7}"
    print(f"{name:<18} {pm:>11.2f} {p3 - p1:>9.2f} {cm:>11.2f} {c3 - c1:>9.2f} "
          f"{ratio} {wins:>3}/{pairs}")
print("all runs correct" if ok else "SOME RUNS FAILED (see the results dir)")
sys.exit(0 if ok else 1)
EOF
