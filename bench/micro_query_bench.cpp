// Micro-benchmarks for the streaming query plane (google-benchmark):
// the cost of opening a checkpoint store, of a cold scan (a fresh
// Dataset per iteration, opened untimed, so every shard is decoded in
// the timed part), of a warm repeat scan served from the shards the
// Dataset already decoded, and of a warm pushdown-filtered query, all
// against the full Dataset::materialize escape hatch. A warm filtered
// query touching one shard must beat materializing the whole store —
// that gap is the entire reason the query plane exists, and these
// numbers keep it honest.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <string>

#include "gpuvar.hpp"

namespace {

namespace fs = std::filesystem;

using gpuvar::query::Dataset;
using gpuvar::query::Predicate;
using gpuvar::query::Source;

/// Checkpoint store shared by every benchmark: the paper-scale store
/// the query plane serves (`gpuvar run --cluster summit-full --workload
/// pagerank --runs 2 --checkpoint DIR --shard-budget 0`). Every one of
/// summit-full's 4,176 node buckets is spilled (budget 0), so the store
/// holds 4,176 shards and 50,112 rows; opening it reads 4,176 headers.
/// Built once, lazily.
const std::string& store_dir() {
  static const std::string dir = [] {
    const fs::path d = fs::temp_directory_path() / "gpuvar_query_bench";
    fs::remove_all(d);
    fs::create_directories(d);
    const gpuvar::Cluster cluster(gpuvar::summit_spec(0x5077, 8, 29, 18, 6));
    const auto cfg =
        gpuvar::default_config(cluster, gpuvar::pagerank_workload(50), 2);
    gpuvar::CampaignOptions opts;
    opts.checkpoint_dir = d.string();
    opts.shard_budget_bytes = 0;
    gpuvar::run_campaign(cluster, cfg, opts);
    return d.string();
  }();
  return dir;
}

void BM_QueryOpen(benchmark::State& state) {
  // Manifest read + per-shard header verification (4,176 headers, read
  // in parallel on the global pool); no payload I/O.
  const std::string& dir = store_dir();
  for (auto _ : state) {
    const Dataset ds = Dataset::open(dir);
    benchmark::DoNotOptimize(ds.total_rows());
  }
}
BENCHMARK(BM_QueryOpen);

/// Replaces `ds` with a freshly opened Dataset outside the timed part,
/// so the next timed scan decodes every shard again.
void reopen_untimed(benchmark::State& state, std::optional<Dataset>& ds) {
  state.PauseTiming();
  ds.reset();
  ds.emplace(Dataset::open(store_dir()));
  state.ResumeTiming();
}

void BM_QueryColdScan(benchmark::State& state) {
  // A fresh Dataset each iteration: every iteration reads, hash-checks,
  // and decodes every shard from disk — what a first query pays.
  std::optional<Dataset> ds;
  for (auto _ : state) {
    reopen_untimed(state, ds);
    const auto report = gpuvar::analyze_variability(Source(*ds));
    benchmark::DoNotOptimize(report.perf.variation_pct);
  }
}
BENCHMARK(BM_QueryColdScan);

void BM_QueryWarmScan(benchmark::State& state) {
  // Shards decoded before timing: the repeat-query path every
  // interactive session lives on. Delta vs BM_QueryColdScan is what
  // keeping decoded shards buys.
  const Dataset ds = Dataset::open(store_dir());
  gpuvar::analyze_variability(Source(ds));
  for (auto _ : state) {
    const auto report = gpuvar::analyze_variability(Source(ds));
    benchmark::DoNotOptimize(report.perf.variation_pct);
  }
}
BENCHMARK(BM_QueryWarmScan);

void BM_QueryWarmFiltered(benchmark::State& state) {
  // Warm shards plus a node predicate that pushdown resolves to a
  // single shard. The acceptance bar: this must beat
  // BM_QueryMaterialize, or streaming queries have no reason to exist.
  const Dataset ds = Dataset::open(store_dir());
  Predicate where;
  where.node.lo = 0;
  where.node.hi = 0;
  gpuvar::analyze_variability(Source(ds, where));
  for (auto _ : state) {
    const auto report = gpuvar::analyze_variability(Source(ds, where));
    benchmark::DoNotOptimize(report.perf.variation_pct);
  }
}
BENCHMARK(BM_QueryWarmFiltered);

void BM_QueryMaterialize(benchmark::State& state) {
  // The pre-query-plane baseline: rebuild the whole RecordFrame from
  // disk, then analyze it. A fresh Dataset each iteration keeps decoded
  // shards out of the picture — the world before this plane kept none.
  std::optional<Dataset> ds;
  for (auto _ : state) {
    reopen_untimed(state, ds);
    const gpuvar::RecordFrame frame = ds->materialize();
    const auto report = gpuvar::analyze_variability(frame);
    benchmark::DoNotOptimize(report.perf.variation_pct);
  }
}
BENCHMARK(BM_QueryMaterialize);

}  // namespace

BENCHMARK_MAIN();
