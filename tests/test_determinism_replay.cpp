// Determinism replay: the same seeded campaign must produce
// byte-identical artifacts whatever the thread count. This is the
// executable form of the simulator's core contract — every output is a
// pure function of (spec, seed) — and the regression net under the
// determinism lints: per-node result buckets concatenated in node
// order, seed-path-keyed RNG, tie-broken sorts, and locale-free
// formatting all have to hold for these byte comparisons to pass.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/markdown_report.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/export.hpp"
#include "cluster/cluster.hpp"
#include "telemetry/run_result.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

struct CampaignArtifacts {
  std::string csv;
  std::string frame_csv;
  std::string markdown;
  std::string trace_json;
  std::string metrics_text;
};

/// Runs the full campaign on a private pool of `threads` workers and
/// renders every interchange artifact: the per-run results CSV (via the
/// same pool-parallel per-node path the CLI uses), the markdown report
/// over the experiment's records, and the observability exports (the
/// Chrome trace and the metrics dump collected during the campaign).
CampaignArtifacts replay_campaign(std::size_t threads) {
  const Cluster cluster{cloudlab_spec()};
  ThreadPool pool(threads);

  auto cfg = default_config(cluster, sgemm_workload(16384, 2), 2);
  cfg.pool = &pool;

  // Trace + metrics ride along exactly as under `gpuvar run
  // --trace --metrics`: lanes are logical timelines on simulation
  // time, metric merges are commutative integers, so both exports
  // must be byte-identical at any pool size.
  obs::TraceSink sink;
  obs::Registry registry;
  CampaignResult result;
  {
    obs::ScopedTrace trace_guard(&sink);
    obs::ScopedMetrics metrics_guard(&registry);
    result = run_campaign(cluster, cfg);
  }
  std::ostringstream trace_json;
  obs::write_chrome_trace(trace_json, sink);
  std::ostringstream metrics_text;
  obs::write_metrics_text(metrics_text, registry.snapshot());

  MarkdownReportOptions md_opts;
  md_opts.bootstrap_resamples = 50;
  std::ostringstream md;
  write_markdown_report(md, result.frame, md_opts);

  // Columnar artifact: the frame streamed out of the parallel
  // FrameBuilder sink must serialize identically at any pool size.
  std::ostringstream frame_csv;
  export_frame_csv(frame_csv, cluster.name(), result.frame);

  // CSV rows come from the raw per-run results; collect them in
  // parallel with per-node buckets, concatenated in node order.
  std::vector<std::vector<GpuRunResult>> buckets(
      static_cast<std::size_t>(cluster.node_count()));
  pool.parallel_for(buckets.size(), [&](std::size_t node) {
    for (int run = 0; run < cfg.runs_per_gpu; ++run) {
      for (auto& r : run_on_node(cluster, static_cast<int>(node),
                                 cfg.workload, run, cfg.run_options)) {
        buckets[node].push_back(std::move(r));
      }
    }
  });
  std::vector<GpuRunResult> rows;
  for (auto& b : buckets) {
    for (auto& r : b) rows.push_back(std::move(r));
  }
  std::ostringstream csv;
  export_results_csv(csv, cluster.name(), cluster.locations(), rows);
  return {csv.str(), frame_csv.str(), md.str(), trace_json.str(),
          metrics_text.str()};
}

TEST(DeterminismReplay, ByteIdenticalAcrossPoolSizes) {
  const CampaignArtifacts one = replay_campaign(1);
  const CampaignArtifacts four = replay_campaign(4);
  const CampaignArtifacts eight = replay_campaign(8);

  ASSERT_FALSE(one.csv.empty());
  ASSERT_FALSE(one.markdown.empty());

  EXPECT_EQ(one.csv, four.csv) << "results CSV differs between 1 and 4 "
                                  "threads: scheduling leaked into output";
  EXPECT_EQ(one.csv, eight.csv) << "results CSV differs between 1 and 8 "
                                   "threads: scheduling leaked into output";
  EXPECT_EQ(one.frame_csv, four.frame_csv)
      << "frame CSV differs between 1 and 4 threads: the FrameBuilder "
         "bucket merge leaked scheduling into the column order";
  EXPECT_EQ(one.frame_csv, eight.frame_csv)
      << "frame CSV differs between 1 and 8 threads: the FrameBuilder "
         "bucket merge leaked scheduling into the column order";
  EXPECT_EQ(one.markdown, four.markdown)
      << "markdown report differs between 1 and 4 threads";
  EXPECT_EQ(one.markdown, eight.markdown)
      << "markdown report differs between 1 and 8 threads";

  ASSERT_FALSE(one.trace_json.empty());
  ASSERT_FALSE(one.metrics_text.empty());
  EXPECT_EQ(one.trace_json, four.trace_json)
      << "Chrome trace differs between 1 and 4 threads: a lane was "
         "shared across tasks or a timestamp came from a wall clock";
  EXPECT_EQ(one.trace_json, eight.trace_json)
      << "Chrome trace differs between 1 and 8 threads: a lane was "
         "shared across tasks or a timestamp came from a wall clock";
  EXPECT_EQ(one.metrics_text, four.metrics_text)
      << "metrics dump differs between 1 and 4 threads: a metric merge "
         "is not commutative";
  EXPECT_EQ(one.metrics_text, eight.metrics_text)
      << "metrics dump differs between 1 and 8 threads: a metric merge "
         "is not commutative";
}

TEST(DeterminismReplay, SpillThresholdNeverChangesArtifactBytes) {
  // The engine's spill path (serialize each bucket to a shard, evict,
  // read it back at merge) must be invisible in the output: a campaign
  // that spilled every bucket and one that spilled none produce the
  // same CSV, report, and summary bytes at every pool size.
  const Cluster cluster{cloudlab_spec()};
  // Per process: the determinism_replay ctest runs this test alongside
  // its individually discovered twin.
  const auto spill_dir =
      std::filesystem::path(::testing::TempDir()) /
      ("gpuvar_replay_spill_" + std::to_string(::getpid()));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    auto cfg = default_config(cluster, sgemm_workload(16384, 2), 2);
    cfg.pool = &pool;

    const CampaignResult in_memory = run_campaign(cluster, cfg);

    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    CampaignOptions spill_all;
    spill_all.checkpoint_dir = spill_dir.string();
    spill_all.shard_budget_bytes = 0;
    const CampaignResult spilled = run_campaign(cluster, cfg, spill_all);
    EXPECT_EQ(spilled.stats.buckets_spilled, spilled.stats.buckets_run)
        << "budget 0 must spill every bucket";

    MarkdownReportOptions md_opts;
    md_opts.bootstrap_resamples = 50;
    std::ostringstream csv_a, csv_b, md_a, md_b, sum_a, sum_b;
    export_frame_csv(csv_a, cluster.name(), in_memory.frame);
    export_frame_csv(csv_b, cluster.name(), spilled.frame);
    write_markdown_report(md_a, in_memory.frame, md_opts);
    write_markdown_report(md_b, spilled.frame, md_opts);
    write_campaign_summary(sum_a, in_memory);
    write_campaign_summary(sum_b, spilled);
    EXPECT_EQ(csv_a.str(), csv_b.str())
        << threads << " threads: spill threshold leaked into the CSV";
    EXPECT_EQ(md_a.str(), md_b.str())
        << threads << " threads: spill threshold leaked into the report";
    EXPECT_EQ(sum_a.str(), sum_b.str())
        << threads << " threads: spill threshold leaked into the summary";
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(DeterminismReplay, RepeatOnSamePoolIsIdentical) {
  // Same pool size twice: catches state leaking between campaigns
  // (e.g. a global RNG advancing) rather than between schedules.
  const CampaignArtifacts a = replay_campaign(4);
  const CampaignArtifacts b = replay_campaign(4);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.frame_csv, b.frame_csv);
  EXPECT_EQ(a.markdown, b.markdown);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
}

}  // namespace
}  // namespace gpuvar
