#!/usr/bin/env bash
# CI entry point: warnings-as-errors build + full test suite + lint,
# the same suite under ASan/UBSan and TSan, the gpuvar-analyzer report,
# and the clang -Wthread-safety check.
#
#   tools/ci.sh                run everything
#   tools/ci.sh build          plain build + ctest (includes lint)
#   tools/ci.sh asan           AddressSanitizer + UBSan job
#   tools/ci.sh tsan           ThreadSanitizer job (ThreadPool-heavy tests)
#   tools/ci.sh analyzer       full gpuvar-analyzer run; archives the JSON
#                              report and layering DOT under build-ci/
#   tools/ci.sh bench-smoke    micro bench smoke run (frame column ops, CSV
#                              export, shard codec, campaign engine, query
#                              plane, stats kernels); archives
#                              BENCH_frame.json, BENCH_engine.json,
#                              BENCH_query.json and BENCH_stats.json
#   tools/ci.sh bench-guard    rerun the micro benches and compare against
#                              the committed bench/BENCH_*.json reference
#                              at a ~2x tolerance
#   tools/ci.sh obs-smoke      end-to-end observability check: a small
#                              `gpuvar run --trace --metrics` campaign,
#                              JSON validation, artifacts archived under
#                              build-ci/
#   tools/ci.sh resume-smoke   kill-and-resume check of the campaign
#                              engine: run a checkpointed campaign, delete
#                              half its shards and the done marker, resume,
#                              and byte-compare every artifact against the
#                              uninterrupted run
#   tools/ci.sh query-smoke    streaming query plane check: run a
#                              checkpointed campaign, then byte-compare
#                              `gpuvar analyze` streaming output against its
#                              --materialize reference path for every
#                              analysis, filtered and compare forms included,
#                              and the campaign's CSV against its store
#   tools/ci.sh thread-safety  clang -Werror=thread-safety syntax-only
#                              compile of src/** (skipped when clang++ is
#                              not installed — the GPUVAR_* annotations
#                              expand to nothing elsewhere)
#
# Each job configures into its own build directory (build-ci, build-asan,
# build-tsan) so the developer's incremental ./build tree is untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

configure_and_test() {
  local dir="$1"
  shift
  local ctest_args=("$@")
  cmake --build "$dir" -j "$JOBS"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${ctest_args[@]}")
}

job_build() {
  echo "=== job: build (GPUVAR_WERROR=ON) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  configure_and_test build-ci
}

job_asan() {
  echo "=== job: asan+ubsan ==="
  cmake -B build-asan -S . -DGPUVAR_WERROR=ON \
    "-DGPUVAR_SANITIZE=address;undefined" > /dev/null
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    configure_and_test build-asan
}

job_tsan() {
  echo "=== job: tsan ==="
  cmake -B build-tsan -S . -DGPUVAR_WERROR=ON \
    -DGPUVAR_SANITIZE=thread > /dev/null
  # TSan slows execution ~10x; run the concurrency-relevant subset: the
  # ThreadPool suite plus the runner/experiment/scheduler tests that
  # exercise parallel_for across simulated clusters, and the obs tests
  # that hammer the sharded metrics registry and trace lanes from pool
  # workers.
  TSAN_OPTIONS=halt_on_error=1 \
    configure_and_test build-tsan \
    -R 'ThreadPool|Runner|Experiment|Scheduler|Integration|^Trace\.|^Metrics\.|DeterminismReplay'
}

job_analyzer() {
  echo "=== job: analyzer (gpuvar-analyzer, ratchet + JSON/DOT) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target gpuvar_analyzer
  local t0 t1
  t0=$(date +%s%N)
  # The findings ratchet: any fingerprint not in the committed baseline
  # fails the run, so the debt can only shrink.
  ./build-ci/tools/gpuvar-analyzer . \
    --baseline docs/analyzer_baseline.json \
    --json build-ci/gpuvar-analyzer.json \
    --dot build-ci/include_graph.dot
  t1=$(date +%s%N)
  # A fixed finding auto-shrinks the baseline file; the shrunk version
  # must be committed, not left dirty on the CI checkout.
  if command -v git > /dev/null 2>&1 && [ -d .git ]; then
    git diff --exit-code -- docs/analyzer_baseline.json || {
      echo "baseline shrank: commit the updated docs/analyzer_baseline.json"
      return 1
    }
  fi
  echo "analyzer cold scan: $(( (t1 - t0) / 1000000 ))ms"
  echo "analyzer report: build-ci/gpuvar-analyzer.json (+ include_graph.dot)"
}

job_bench_smoke() {
  echo "=== job: bench-smoke (micro frame/engine/query/stats benches) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target micro_frame_bench \
    --target micro_engine_bench --target micro_query_bench \
    --target micro_stats_bench
  # Smoke cadence, not a tuned perf run: one repetition per benchmark,
  # JSON archived so regressions in the columnar data plane, the shard
  # codec / campaign engine, the streaming query plane, and the stats
  # kernels are diffable.
  ./build-ci/bench/micro_frame_bench \
    --benchmark_out=build-ci/BENCH_frame.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_engine_bench \
    --benchmark_out=build-ci/BENCH_engine.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_query_bench \
    --benchmark_out=build-ci/BENCH_query.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_stats_bench \
    --benchmark_out=build-ci/BENCH_stats.json \
    --benchmark_out_format=json
  echo "frame bench report: build-ci/BENCH_frame.json"
  echo "engine bench report: build-ci/BENCH_engine.json"
  echo "query bench report: build-ci/BENCH_query.json"
  echo "stats bench report: build-ci/BENCH_stats.json"
}

job_bench_guard() {
  echo "=== job: bench-guard (fresh micro benches vs committed reference) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target micro_frame_bench \
    --target micro_engine_bench --target micro_query_bench \
    --target micro_stats_bench
  if ! command -v python3 > /dev/null 2>&1; then
    echo "python3 unavailable; skipping bench comparison"
    return 0
  fi
  ./build-ci/bench/micro_frame_bench \
    --benchmark_out=build-ci/BENCH_frame.guard.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_engine_bench \
    --benchmark_out=build-ci/BENCH_engine.guard.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_query_bench \
    --benchmark_out=build-ci/BENCH_query.guard.json \
    --benchmark_out_format=json
  ./build-ci/bench/micro_stats_bench \
    --benchmark_out=build-ci/BENCH_stats.guard.json \
    --benchmark_out_format=json
  # Coarse regression tripwire, not a tuned perf gate: a fresh run more
  # than ~2x slower than the committed reference on any benchmark fails.
  # CI hosts vary, so the tolerance is wide; refresh the reference with
  #   tools/ci.sh bench-smoke && cp build-ci/BENCH_*.json bench/
  python3 - \
    bench/BENCH_frame.json build-ci/BENCH_frame.guard.json \
    bench/BENCH_engine.json build-ci/BENCH_engine.guard.json \
    bench/BENCH_query.json build-ci/BENCH_query.guard.json \
    bench/BENCH_stats.json build-ci/BENCH_stats.guard.json <<'EOF'
import json
import sys

TOLERANCE = 2.0
failed = False
for ref_path, fresh_path in zip(sys.argv[1::2], sys.argv[2::2]):
    with open(ref_path) as f:
        ref = {b["name"]: b for b in json.load(f)["benchmarks"]}
    with open(fresh_path) as f:
        fresh = {b["name"]: b for b in json.load(f)["benchmarks"]}
    missing = sorted(set(ref) - set(fresh))
    if missing:
        print(f"FAIL {fresh_path}: benchmarks gone: {', '.join(missing)}")
        failed = True
    common = sorted(set(ref) & set(fresh))
    if not common:
        print(f"FAIL {fresh_path}: no benchmarks in common with {ref_path}")
        failed = True
    for name in common:
        r, g = ref[name]["real_time"], fresh[name]["real_time"]
        ratio = g / r if r > 0 else float("inf")
        if ratio > TOLERANCE:
            print(f"FAIL {name}: {g:.0f}ns vs reference {r:.0f}ns "
                  f"({ratio:.2f}x > {TOLERANCE}x)")
            failed = True
        elif ratio < 1.0 / TOLERANCE:
            print(f"note {name}: {ratio:.2f}x of reference — "
                  f"consider refreshing bench/{ref_path.split('/')[-1]}")
sys.exit(1 if failed else 0)
EOF
  echo "bench-guard: all benchmarks within tolerance of bench/BENCH_*.json"
}

job_obs_smoke() {
  echo "=== job: obs-smoke (CLI --trace/--metrics end to end) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target gpuvar_cli
  ./build-ci/tools/gpuvar run --cluster cloudlab --workload sgemm \
    --reps 4 --runs 2 \
    --trace build-ci/OBS_trace.json --metrics build-ci/OBS_metrics.txt
  # The trace must be well-formed Chrome trace-event JSON and the dump
  # must carry the campaign's core series.
  if command -v python3 > /dev/null 2>&1; then
    python3 - build-ci/OBS_trace.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty traceEvents"
phases = {e["ph"] for e in events}
assert {"M", "B", "E"} <= phases, f"missing phases: {phases}"
assert all("tid" in e and "pid" in e for e in events)
print(f"trace OK: {len(events)} events")
EOF
  else
    grep -q '"traceEvents"' build-ci/OBS_trace.json
    echo "trace OK (python3 unavailable; structural grep only)"
  fi
  grep -q '^counter experiment\.node_jobs ' build-ci/OBS_metrics.txt
  grep -q '^histogram runner\.perf_us ' build-ci/OBS_metrics.txt
  echo "obs artifacts: build-ci/OBS_trace.json build-ci/OBS_metrics.txt"
}

job_resume_smoke() {
  echo "=== job: resume-smoke (campaign kill + resume, byte-compare) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target gpuvar_cli
  local ck=build-ci/RESUME_ck
  rm -rf "$ck" build-ci/RESUME_*.csv build-ci/RESUME_*.md build-ci/RESUME_*.sum

  # Uninterrupted reference: a checkpointed, spill-everything campaign.
  ./build-ci/tools/gpuvar run --cluster cloudlab --workload sgemm \
    --reps 4 --runs 2 --checkpoint "$ck" --shard-budget 0 \
    --out build-ci/RESUME_ref.csv --report build-ci/RESUME_ref.md \
    --summary build-ci/RESUME_ref.sum

  # Simulate a mid-campaign kill: delete every other shard, strip the
  # manifest's done line, and put the in-progress marker back — the
  # on-disk state a SIGKILL between bucket completions leaves behind.
  local n=0
  for shard in "$ck"/bucket-*.shard; do
    if [ $((n % 2)) -eq 0 ]; then rm "$shard"; fi
    n=$((n + 1))
  done
  grep -v '^done$' "$ck/manifest.txt" > "$ck/manifest.txt.tmp"
  mv "$ck/manifest.txt.tmp" "$ck/manifest.txt"
  echo "campaign in progress" > "$ck/IN_PROGRESS"

  # Resume: only the missing buckets re-run (the CLI reports how many
  # were restored), then every artifact must match the reference byte
  # for byte.
  ./build-ci/tools/gpuvar run --cluster cloudlab --workload sgemm \
    --reps 4 --runs 2 --checkpoint "$ck" --shard-budget 0 \
    --out build-ci/RESUME_got.csv --report build-ci/RESUME_got.md \
    --summary build-ci/RESUME_got.sum | tee build-ci/RESUME_log.txt
  grep -q 'buckets restored' build-ci/RESUME_log.txt
  cmp build-ci/RESUME_ref.csv build-ci/RESUME_got.csv
  cmp build-ci/RESUME_ref.md build-ci/RESUME_got.md
  cmp build-ci/RESUME_ref.sum build-ci/RESUME_got.sum
  [ ! -e "$ck/IN_PROGRESS" ]
  echo "resume-smoke: resumed campaign artifacts byte-identical"
}

job_query_smoke() {
  echo "=== job: query-smoke (streaming query vs --materialize) ==="
  cmake -B build-ci -S . -DGPUVAR_WERROR=ON > /dev/null
  cmake --build build-ci -j "$JOBS" --target gpuvar_cli
  local ck=build-ci/QUERY_ck
  rm -rf "$ck" build-ci/QUERY_lh build-ci/QUERY_*.txt

  # The store under query: a checkpointed, spill-everything campaign,
  # one shard per node bucket.
  ./build-ci/tools/gpuvar run --cluster cloudlab --workload sgemm \
    --reps 4 --runs 2 --checkpoint "$ck" --shard-budget 0 \
    --out build-ci/QUERY_ref.csv > /dev/null

  # The query plane's core contract: every analysis prints byte-identical
  # output whether it streams shards (here with a custom pool and a
  # cache budget small enough to evict) or runs over the materialized
  # frame.
  local a name
  for a in variability correlate flags drift impact groups \
      "project --target 64" report; do
    name=${a%% *}
    # $a is unquoted on purpose: it carries the analysis and its flags.
    ./build-ci/tools/gpuvar analyze "$ck" --analysis $a \
      --threads 4 --cache-budget 4K > "build-ci/QUERY_${name}_stream.txt"
    ./build-ci/tools/gpuvar analyze "$ck" --analysis $a \
      --materialize > "build-ci/QUERY_${name}_mat.txt"
    cmp "build-ci/QUERY_${name}_stream.txt" "build-ci/QUERY_${name}_mat.txt"
  done

  # Exact interchange: a campaign's --out CSV holds every double to the
  # bit, so each analysis of it prints what its store's does after the
  # first line (the source summary). The longhorn campaign is one where
  # 10 significant digits were not enough (its power outlier count
  # changed). report is left out: its bootstrap CI resamples per-GPU
  # medians in GPU-index order, and a CSV's GPU index is derived from
  # the GPU name, not the cluster's numbering.
  local lh=build-ci/QUERY_lh
  ./build-ci/tools/gpuvar run --cluster longhorn --workload sgemm \
    --reps 4 --runs 3 --coverage 0.3 --checkpoint "$lh" --shard-budget 0 \
    --out build-ci/QUERY_lh.csv > /dev/null
  local pair store csv
  for pair in "$ck:build-ci/QUERY_ref.csv" "$lh:build-ci/QUERY_lh.csv"; do
    store=${pair%%:*}
    csv=${pair#*:}
    for a in variability correlate flags drift impact groups; do
      ./build-ci/tools/gpuvar analyze "$csv" --analysis "$a" |
        tail -n +2 > "build-ci/QUERY_${a}_csv.txt"
      ./build-ci/tools/gpuvar analyze "$store" --analysis "$a" |
        tail -n +2 > "build-ci/QUERY_${a}_store.txt"
      cmp "build-ci/QUERY_${a}_csv.txt" "build-ci/QUERY_${a}_store.txt"
    done
  done

  # Filtered form: a --where predicate that pushdown resolves to a
  # strict shard subset (two of cloudlab's three node buckets) takes
  # the same byte-identity bar, streamed three ways: unlimited cache,
  # a custom pool evicting everything, and pushdown off.
  local v variant
  for a in variability groups; do
    ./build-ci/tools/gpuvar analyze "$ck" --where node=0..1 \
      --analysis "$a" --materialize > "build-ci/QUERY_where_${a}_mat.txt"
    for v in "" "--threads 4 --cache-budget 0" "--no-pushdown"; do
      variant=$(echo "$v" | tr -d ' -')
      # $v is unquoted on purpose: it carries zero or more flags.
      ./build-ci/tools/gpuvar analyze "$ck" --where node=0..1 \
        --analysis "$a" $v > "build-ci/QUERY_where_${a}_stream${variant}.txt"
      cmp "build-ci/QUERY_where_${a}_stream${variant}.txt" \
        "build-ci/QUERY_where_${a}_mat.txt"
    done
  done

  # Two-store comparison: a store against itself must stay at "no
  # significant per-GPU changes" whichever side is the baseline.
  ./build-ci/tools/gpuvar analyze "$ck" --against "$ck" \
    --analysis compare > build-ci/QUERY_compare_stream.txt
  ./build-ci/tools/gpuvar analyze "$ck" --against "$ck" \
    --analysis compare --materialize > build-ci/QUERY_compare_mat.txt
  cmp build-ci/QUERY_compare_stream.txt build-ci/QUERY_compare_mat.txt
  grep -q '^no significant per-GPU changes$' build-ci/QUERY_compare_stream.txt
  echo "query-smoke: streaming output byte-identical to --materialize," \
    "CSV analyses to the store's"
}

job_thread_safety() {
  echo "=== job: thread-safety (clang -Werror=thread-safety) ==="
  if ! command -v clang++ > /dev/null 2>&1; then
    echo "clang++ not installed; skipping (annotations are no-ops under"
    echo "other compilers — this job needs clang's -Wthread-safety)."
    return 0
  fi
  # Syntax-only compile of every library TU with the analysis promoted
  # to an error: a guarded member touched without its mutex fails CI.
  local failed=0
  while IFS= read -r tu; do
    clang++ -std=c++20 -fsyntax-only -Isrc \
      -Wthread-safety -Werror=thread-safety "$tu" || failed=1
  done < <(find src -name '*.cpp' | sort)
  [ "$failed" -eq 0 ] && echo "thread-safety: src/** clean"
  return "$failed"
}

case "${1:-all}" in
  build) job_build ;;
  asan) job_asan ;;
  tsan) job_tsan ;;
  analyzer) job_analyzer ;;
  bench-smoke) job_bench_smoke ;;
  bench-guard) job_bench_guard ;;
  obs-smoke) job_obs_smoke ;;
  resume-smoke) job_resume_smoke ;;
  query-smoke) job_query_smoke ;;
  thread-safety) job_thread_safety ;;
  all)
    job_build
    job_analyzer
    job_bench_smoke
    job_bench_guard
    job_obs_smoke
    job_resume_smoke
    job_query_smoke
    job_thread_safety
    job_asan
    job_tsan
    echo "=== all CI jobs passed ==="
    ;;
  *)
    echo "usage: tools/ci.sh [build|asan|tsan|analyzer|bench-smoke|bench-guard|obs-smoke|resume-smoke|query-smoke|thread-safety|all]" >&2
    exit 2
    ;;
esac
