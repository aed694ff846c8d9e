#!/usr/bin/env bash
# Determinism contract: findings (JSON) are byte-identical at 1, 4, and
# 8 scan threads. The real repo tree is the input; its findings content
# does not matter, only that every run agrees byte-for-byte. A --threads
# value that is not a non-negative integer is bad usage (exit 2), and is
# refused before any worker starts.
# Usage: test_analyzer_determinism.sh <analyzer> <repo_root> <work_dir>
set -euo pipefail

BIN=$1
ROOT=$2
WORK=$3

rm -rf "$WORK"
mkdir -p "$WORK"

run_json() {
  # Exit code may be 0 or 1 (findings); anything else is an error.
  local out=$1
  shift
  local rc=0
  "$BIN" "$ROOT" --json "$out" "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "FAIL: analyzer exited $rc"
    exit 1
  fi
}

run_json "$WORK/t1.json" --threads 1
run_json "$WORK/t4.json" --threads 4
run_json "$WORK/t8.json" --threads 8
cmp "$WORK/t1.json" "$WORK/t4.json" || {
  echo "FAIL: findings differ between 1 and 4 threads"
  exit 1
}
cmp "$WORK/t1.json" "$WORK/t8.json" || {
  echo "FAIL: findings differ between 1 and 8 threads"
  exit 1
}

for bad in abc -1 4x; do
  rc=0
  "$BIN" "$ROOT" --threads "$bad" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: --threads $bad exited $rc, expected 2 (usage)"
    exit 1
  fi
done

echo "determinism OK"
