#!/usr/bin/env bash
# docs/include_graph.dot is generated from the tree by the analyzer's
# layering pass; this keeps the committed copy in lockstep with the
# includes, so the drawn module graph never describes a layering the
# code no longer has.
# Usage: test_include_graph_doc.sh <analyzer> <repo_root> <work_dir>
set -euo pipefail

BIN=$1
ROOT=$2
WORK=$3
DOC="$ROOT/docs/include_graph.dot"

rm -rf "$WORK"
mkdir -p "$WORK"

# Findings (exit 1) are the lint test's business; only bad usage fails
# here, and the graph is written either way.
status=0
"$BIN" "$ROOT" --dot "$WORK/include_graph.dot" > "$WORK/analyzer.txt" || \
  status=$?
if [ "$status" -ge 2 ]; then
  echo "FAIL: gpuvar-analyzer --dot exited $status"
  cat "$WORK/analyzer.txt"
  exit 1
fi

if ! cmp -s "$WORK/include_graph.dot" "$DOC"; then
  echo "FAIL: $DOC is stale — regenerate with:"
  echo "  gpuvar-analyzer . --dot docs/include_graph.dot"
  diff -u "$DOC" "$WORK/include_graph.dot" | head -20 || true
  exit 1
fi

echo "include graph doc OK"
