#!/usr/bin/env bash
# Paper-number guard: runs every figure/table/ablation/extension bench
# (tab*, fig*, abl*, ext*), hashes each one's stdout, adds the frame
# hashes that the campaign-hash program prints, and compares the lot to
# the committed table. Lines that start with the wall-clock marker
# (bench_util.hpp) are dropped before hashing; nothing else is masked.
#
#   paper_golden.sh BENCH_DIR CAMPAIGN_HASHES TABLE           check
#   paper_golden.sh BENCH_DIR CAMPAIGN_HASHES TABLE --record  rewrite TABLE
#
# Exit 0 when every hash matches, 1 on any mismatch, missing or extra
# bench, 2 on bad usage. A mismatch names the bench whose output moved;
# EXPERIMENTS.md names the bench behind every quoted number.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ] || { [ $# -eq 4 ] && [ "$4" != --record ]; }; then
  echo "usage: $0 BENCH_DIR CAMPAIGN_HASHES TABLE [--record]" >&2
  exit 2
fi
bench_dir=$1
campaign_hashes=$2
table=$3
marker='[wall-clock]'

# Scale knobs would change every number: pin the defaults.
unset GPUVAR_REPS GPUVAR_RUNS GPUVAR_SUMMIT GPUVAR_ITERS

# hash_of NAME CMD...: one table line for CMD's masked stdout.
hash_of() {
  local name=$1
  shift
  local h
  if ! h=$("$@" | awk -v m="$marker" 'index($0, m) != 1' | sha256sum); then
    echo "paper_golden: $name failed" >&2
    return 1
  fi
  printf '%s %s\n' "$name" "${h:0:16}"
}

actual=$(
  shopt -s nullglob
  for b in "$bench_dir"/tab* "$bench_dir"/fig* "$bench_dir"/abl* \
           "$bench_dir"/ext*; do
    if [ -x "$b" ]; then hash_of "$(basename "$b")" "$b" || exit 1; fi
  done
  "$campaign_hashes" || { echo "paper_golden: campaign hashes failed" >&2; exit 1; }
) || exit 1

if [ $# -eq 4 ]; then
  {
    echo "# Generated by tests/golden/paper_golden.sh --record."
    echo "# <bench> <first 16 hex digits of sha256 of its masked stdout>"
    echo "# <cluster>/<workload>@<coverage> <hash_frame_shard of the campaign>"
    printf '%s\n' "$actual"
  } > "$table"
  echo "recorded $(printf '%s\n' "$actual" | wc -l) hashes in $table"
  exit 0
fi

if diff <(grep -v '^#' "$table") <(printf '%s\n' "$actual"); then
  echo "paper_golden: $(printf '%s\n' "$actual" | wc -l) outputs match"
  exit 0
fi
echo "paper_golden: outputs differ from $table (< expected, > actual)" >&2
exit 1
