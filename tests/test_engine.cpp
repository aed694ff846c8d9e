// Campaign engine: checkpoint/resume, bounded-memory spilling, and the
// contract that every artifact byte is independent of pool size, spill
// threshold, and interruption history.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/experiment.hpp"
#include "core/markdown_report.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "shard_forgery.hpp"
#include "telemetry/export.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/shard.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

namespace fs = std::filesystem;

struct Artifacts {
  std::string csv;
  std::string markdown;
  std::string summary;
};

/// Renders every downstream artifact the acceptance contract compares:
/// the frame CSV, the markdown report, and the campaign summary.
Artifacts render(const Cluster& cluster, const CampaignResult& result) {
  Artifacts a;
  std::ostringstream csv;
  export_frame_csv(csv, cluster.name(), result.frame);
  a.csv = csv.str();
  MarkdownReportOptions md_opts;
  md_opts.bootstrap_resamples = 50;
  std::ostringstream md;
  write_markdown_report(md, result.frame, md_opts);
  a.markdown = md.str();
  std::ostringstream sum;
  write_campaign_summary(sum, result);
  a.summary = sum.str();
  return a;
}

class EngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const fs::path& dir : dirs_) fs::remove_all(dir);
  }
  /// Fresh checkpoint directory under gtest's temp root, removed when
  /// the test ends (the wide campaigns leave thousands of shards).
  fs::path fresh_dir(const std::string& name) {
    const fs::path dir =
        fs::path(::testing::TempDir()) / "gpuvar_engine" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }
  ExperimentConfig config(int runs = 2) const {
    return default_config(cluster_, sgemm_workload(16384, 2), runs);
  }
  Cluster cluster_{cloudlab_spec()};

 private:
  std::vector<fs::path> dirs_;
};

// A campaign wide enough that the merge reads it back in several
// windows (64 buckets per worker) at 1, 4 and 8 threads, with victims
// in different windows.
constexpr std::size_t kWideNodes = 600;
constexpr std::array<std::size_t, 4> kWideVictims = {1, 130, 300, 599};

ClusterSpec wide_spec() {
  ClusterSpec s = cloudlab_spec();
  s.layout.nodes = static_cast<int>(kWideNodes);
  s.layout.gpus_per_node = 2;
  return s;
}

ExperimentConfig wide_config(const Cluster& cluster) {
  return default_config(cluster, pagerank_workload(2), 1);
}

TEST_F(EngineTest, ByteIdenticalAtAnyPoolSizeAndSpillThreshold) {
  // Reference: single-threaded, purely in-memory.
  const CampaignResult ref = run_campaign(cluster_, config());
  const Artifacts want = render(cluster_, ref);
  ASSERT_GT(ref.stats.bucket_bytes_max, 0u);
  EXPECT_EQ(ref.stats.buckets_total, 3u);
  EXPECT_EQ(ref.stats.buckets_run, 3u);
  EXPECT_EQ(ref.stats.buckets_spilled, 0u);

  // Budget 0 spills every bucket; one-bucket budget spills under
  // contention; unlimited never spills. All must emit the same bytes.
  const std::vector<std::uint64_t> budgets = {
      0, ref.stats.bucket_bytes_max, kUnlimitedShardBudget};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::uint64_t budget : budgets) {
      auto cfg = config();
      cfg.pool = &pool;
      CampaignOptions opts;
      opts.shard_budget_bytes = budget;
      if (budget != kUnlimitedShardBudget) {
        opts.checkpoint_dir = fresh_dir("matrix").string();
      }
      const CampaignResult got = run_campaign(cluster_, cfg, opts);
      const Artifacts a = render(cluster_, got);
      const std::string label = "threads=" + std::to_string(threads) +
                                " budget=" + std::to_string(budget);
      EXPECT_EQ(a.csv, want.csv) << label << ": frame CSV diverged";
      EXPECT_EQ(a.markdown, want.markdown) << label << ": report diverged";
      EXPECT_EQ(a.summary, want.summary) << label << ": summary diverged";
      if (budget == 0) {
        EXPECT_EQ(got.stats.buckets_spilled, 3u) << label;
      }
    }
  }
}

TEST_F(EngineTest, InterruptedThenResumedIsByteIdentical) {
  const Artifacts want = render(cluster_, run_campaign(cluster_, config()));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const fs::path dir =
        fresh_dir("interrupt-" + std::to_string(threads));

    // First attempt dies from inside the progress callback after the
    // first bucket completes. The shard and its manifest line are
    // already durable at that point (durability precedes progress), so
    // the kill can cost at most the in-flight buckets.
    auto cfg = config();
    cfg.pool = &pool;
    cfg.progress = [](std::size_t done, std::size_t) {
      if (done == 1) throw std::runtime_error("simulated kill");
    };
    CampaignOptions opts;
    opts.checkpoint_dir = dir.string();
    EXPECT_THROW(run_campaign(cluster_, cfg, opts), std::runtime_error);
    EXPECT_TRUE(fs::exists(dir / "IN_PROGRESS"))
        << "a killed campaign must leave its in-progress marker behind";

    // Resume: only the missing buckets re-run, progress is monotone
    // 1..total across restored + fresh buckets, and every artifact byte
    // matches the uninterrupted reference.
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    cfg.progress = [&](std::size_t done, std::size_t total) {
      seen.emplace_back(done, total);
    };
    const CampaignResult resumed = run_campaign(cluster_, cfg, opts);
    EXPECT_GE(resumed.stats.buckets_restored, 1u);
    EXPECT_EQ(resumed.stats.buckets_restored + resumed.stats.buckets_run, 3u);
    ASSERT_EQ(seen.size(), 3u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].first, i + 1);
      EXPECT_EQ(seen[i].second, 3u);
    }
    EXPECT_FALSE(fs::exists(dir / "IN_PROGRESS"))
        << "a completed campaign must clear the marker";

    const Artifacts a = render(cluster_, resumed);
    EXPECT_EQ(a.csv, want.csv)
        << threads << " threads: resumed CSV differs from uninterrupted";
    EXPECT_EQ(a.markdown, want.markdown)
        << threads << " threads: resumed report differs from uninterrupted";
    EXPECT_EQ(a.summary, want.summary)
        << threads << " threads: resumed summary differs from uninterrupted";
  }
}

TEST_F(EngineTest, StaleShardHashForcesRerunOfThatBucket) {
  // Corrupt shards in different merge windows, each behind the
  // manifest's back: flip the last payload byte. At every pool size the
  // resume must demote exactly those buckets and still emit every
  // artifact byte unchanged.
  const Cluster wide(wide_spec());
  const auto cfg = wide_config(wide);
  const Artifacts want = render(wide, run_campaign(wide, cfg));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    auto pooled = cfg;
    pooled.pool = &pool;
    const fs::path dir = fresh_dir("stale-" + std::to_string(threads));
    CampaignOptions opts;
    opts.checkpoint_dir = dir.string();
    const CampaignResult first = run_campaign(wide, pooled, opts);

    for (std::size_t victim : kWideVictims) {
      std::fstream f(dir / campaign_shard_file_name(victim),
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekg(-1, std::ios::end);
      char c = 0;
      f.get(c);
      f.seekp(-1, std::ios::end);
      f.put(static_cast<char>(c ^ 0x01));
    }

    // A budget of two buckets mixes resident and read-back buckets in
    // the merge's windows.
    opts.shard_budget_bytes = 2 * first.stats.bucket_bytes_max;
    const CampaignResult second = run_campaign(wide, pooled, opts);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(second.stats.buckets_rerun_stale, kWideVictims.size())
        << label << ": every corrupt shard must be demoted to re-run";
    EXPECT_EQ(second.stats.buckets_restored,
              kWideNodes - kWideVictims.size()) << label;
    EXPECT_EQ(second.stats.buckets_run, kWideVictims.size()) << label;
    const Artifacts a = render(wide, second);
    EXPECT_EQ(a.csv, want.csv) << label;
    EXPECT_EQ(a.markdown, want.markdown) << label;
    EXPECT_EQ(a.summary, want.summary) << label;
  }
}

TEST_F(EngineTest, ForgedPoolShardForcesRerunOfThatBucket) {
  // Shards whose bytes, payload hash and manifest entry all agree, but
  // whose pool RecordFrame::append_row could not have built: only the
  // decoder's pool check can catch them, and resume must demote them to
  // re-runs like any other defect. One defect per victim, the victims
  // in different merge windows.
  const std::vector<PoolDefect> defects = {PoolDefect::kDuplicateGpuIndex,
                                           PoolDefect::kOutOfOrderFirstUse,
                                           PoolDefect::kUnreferencedEntry};
  ASSERT_LE(defects.size(), kWideVictims.size());
  const Cluster wide(wide_spec());
  const auto cfg = wide_config(wide);
  const Artifacts want = render(wide, run_campaign(wide, cfg));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    auto pooled = cfg;
    pooled.pool = &pool;
    const fs::path dir = fresh_dir("forged-pool-" + std::to_string(threads));
    CampaignOptions opts;
    opts.checkpoint_dir = dir.string();
    run_campaign(wide, pooled, opts);

    CampaignManifest m = read_campaign_manifest(dir / kCampaignManifestName);
    for (std::size_t d = 0; d < defects.size(); ++d) {
      const std::size_t victim = kWideVictims[d];
      const fs::path path = dir / campaign_shard_file_name(victim);
      const RecordFrame bucket = read_frame_shard(path).frame;
      ASSERT_GE(bucket.gpu_count(), 2u) << "forgery needs two GPUs per bucket";
      const std::string forged = forge_pool_defect(bucket, defects[d], victim);
      std::ofstream(path, std::ios::binary | std::ios::trunc) << forged;
      m.entries.at(victim).info =
          parse_frame_shard_header(forged, "forged").info;
    }
    rewrite_campaign_manifest(dir, m.config_hash, m.entries, m.done);

    const CampaignResult second = run_campaign(wide, pooled, opts);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(second.stats.buckets_rerun_stale, defects.size())
        << label << ": every forged shard must be demoted to re-run";
    EXPECT_EQ(second.stats.buckets_restored, kWideNodes - defects.size())
        << label;
    const Artifacts a = render(wide, second);
    EXPECT_EQ(a.csv, want.csv) << label;
    EXPECT_EQ(a.markdown, want.markdown) << label;
    EXPECT_EQ(a.summary, want.summary) << label;
  }
}

TEST_F(EngineTest, TruncatedUnlistedShardIsRerunOnResume) {
  // What a kill in the middle of a shard write leaves behind: a short
  // file under the shard's final name and no manifest line for it (the
  // line is appended only after the write completes). Resume must
  // re-run exactly that bucket, overwrite the torn file, and emit every
  // artifact byte unchanged.
  const Cluster wide(wide_spec());
  const auto cfg = wide_config(wide);
  const Artifacts want = render(wide, run_campaign(wide, cfg));
  const fs::path dir = fresh_dir("torn-shard");
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  run_campaign(wide, cfg, opts);

  const std::size_t victim = kWideVictims[1];
  const fs::path path = dir / campaign_shard_file_name(victim);
  fs::resize_file(path, fs::file_size(path) / 2);
  CampaignManifest m = read_campaign_manifest(dir / kCampaignManifestName);
  m.entries.erase(victim);
  rewrite_campaign_manifest(dir, m.config_hash, m.entries, /*done=*/false);
  std::ofstream(dir / kCampaignMarkerName) << "campaign in progress\n";

  const CampaignResult resumed = run_campaign(wide, cfg, opts);
  EXPECT_EQ(resumed.stats.buckets_rerun_stale, 0u)
      << "an unlisted shard is not stale: it was never committed";
  EXPECT_EQ(resumed.stats.buckets_run, 1u);
  EXPECT_EQ(resumed.stats.buckets_restored, kWideNodes - 1);
  const Artifacts a = render(wide, resumed);
  EXPECT_EQ(a.csv, want.csv);
  EXPECT_EQ(a.markdown, want.markdown);
  EXPECT_EQ(a.summary, want.summary);
  EXPECT_EQ(read_frame_shard(path).frame.size(),
            static_cast<std::size_t>(
                read_campaign_manifest(dir / kCampaignManifestName)
                    .entries.at(victim)
                    .info.rows))
      << "the re-run must replace the torn shard";
}

TEST_F(EngineTest, MergeReportsLowestFailingShardAtAnyPoolSize) {
  // Shards that vanish after the resume scan fail the merge's read-back.
  // Whichever worker hits its failure first, the error names the
  // lowest failing bucket, so the message is the same at any pool size.
  const Cluster wide(wide_spec());
  const auto cfg = wide_config(wide);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const fs::path dir = fresh_dir("merge-fail-" + std::to_string(threads));
    auto pooled = cfg;
    pooled.pool = &pool;
    pooled.progress = [&](std::size_t done, std::size_t total) {
      if (done != total) return;
      for (std::size_t victim : kWideVictims) {
        fs::remove(dir / campaign_shard_file_name(victim));
      }
    };
    CampaignOptions opts;
    opts.checkpoint_dir = dir.string();
    opts.shard_budget_bytes = 0;  // every bucket is read back
    try {
      run_campaign(wide, pooled, opts);
      FAIL() << "threads=" << threads << ": merged over missing shards";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    campaign_shard_file_name(kWideVictims.front())),
                std::string::npos)
          << "threads=" << threads << ": " << e.what();
    }
  }
}

TEST_F(EngineTest, EvictionOrderIsPinnedAtOneThread) {
  // At one thread buckets complete in index order, so which buckets stay
  // resident is a pure function of the eviction rule: largest resident
  // bucket first, ties to the higher index. Offset node labels give
  // buckets 300 and up GPU names too long for the short-string buffer,
  // so the campaign has two bucket sizes. Largest-first shows in the
  // resident peak; ties-to-the-higher-index keeps the first buckets
  // resident, so the merge must not need their shards. The values are
  // recorded from the serial victim scan the rule was first written as.
  constexpr std::uint64_t kBucketBytesMax = 716;
  constexpr std::size_t kSpilled = 582;
  constexpr std::uint64_t kPeak = 13568;
  ClusterSpec spec = wide_spec();
  spec.node_label_base = 100000 - 300;  // node 300 prints as c100000
  const Cluster wide(spec);
  ThreadPool pool(1);
  auto cfg = wide_config(wide);
  cfg.pool = &pool;
  const CampaignResult ref = run_campaign(wide, cfg);
  ASSERT_EQ(ref.stats.bucket_bytes_max, kBucketBytesMax);

  const fs::path dir = fresh_dir("eviction");
  cfg.progress = [&](std::size_t done, std::size_t total) {
    if (done != total) return;
    for (std::size_t ai = 0; ai < kWideNodes - kSpilled; ++ai) {
      fs::remove(dir / campaign_shard_file_name(ai));
    }
  };
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  opts.shard_budget_bytes = 37 * ref.stats.bucket_bytes_max / 2;
  const CampaignResult got = run_campaign(wide, cfg, opts);
  EXPECT_EQ(got.stats.buckets_spilled, kSpilled);
  EXPECT_EQ(got.stats.resident_bytes_peak, kPeak);
  EXPECT_EQ(render(wide, got).csv, render(wide, ref).csv);
}

TEST_F(EngineTest, TornManifestTailIsSkippedOnResume) {
  const fs::path dir = fresh_dir("torn");
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  const Artifacts want = render(cluster_, run_campaign(cluster_, config(), opts));

  // Simulate an append that died mid-line: the durable prefix counts,
  // the torn tail is ignored.
  {
    std::ofstream f(dir / "manifest.txt", std::ios::app);
    f << "bucket 2 rows 4 payl";
  }
  const CampaignResult resumed = run_campaign(cluster_, config(), opts);
  EXPECT_EQ(resumed.stats.buckets_restored, 3u);
  EXPECT_EQ(render(cluster_, resumed).csv, want.csv);
}

TEST_F(EngineTest, CheckpointOfDifferentCampaignIsRefused) {
  const fs::path dir = fresh_dir("mismatch");
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  run_campaign(cluster_, config(/*runs=*/1), opts);
  try {
    run_campaign(cluster_, config(/*runs=*/2), opts);
    FAIL() << "resumed under a different config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign"),
              std::string::npos);
  }

  // Same name, different reps: the workload spec (not just its name)
  // is part of the checkpoint identity.
  auto reps_cfg = config(/*runs=*/1);
  reps_cfg.workload = sgemm_workload(16384, 3);
  try {
    run_campaign(cluster_, reps_cfg, opts);
    FAIL() << "resumed under a different workload spec";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign"),
              std::string::npos);
  }
}

TEST_F(EngineTest, ForeignManifestFileIsRefused) {
  const fs::path dir = fresh_dir("foreign");
  {
    std::ofstream f(dir / "manifest.txt");
    f << "someone else's file\n";
  }
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  EXPECT_THROW(run_campaign(cluster_, config(), opts), std::runtime_error);
}

TEST_F(EngineTest, BoundedBudgetRequiresCheckpointDir) {
  CampaignOptions opts;
  opts.shard_budget_bytes = 0;
  EXPECT_THROW(run_campaign(cluster_, config(), opts), std::invalid_argument);
}

TEST_F(EngineTest, ResidentBytesStayWithinBudgetPlusOneBucket) {
  ThreadPool pool(4);
  auto cfg = config(/*runs=*/3);
  cfg.pool = &pool;

  obs::Registry registry;
  CampaignResult result;
  {
    obs::ScopedMetrics metrics_guard(&registry);
    CampaignOptions opts;
    opts.checkpoint_dir = fresh_dir("budget").string();
    opts.shard_budget_bytes = 1;  // tighter than any real bucket
    result = run_campaign(cluster_, cfg, opts);
  }
  ASSERT_GT(result.stats.bucket_bytes_max, 0u);
  // The memory contract: resident completed-bucket bytes never exceed
  // budget + the one bucket counted before eviction runs.
  EXPECT_LE(result.stats.resident_bytes_peak,
            1 + result.stats.bucket_bytes_max);
  EXPECT_EQ(result.stats.buckets_spilled, 3u);

  // The same facts surface through the metrics registry.
  std::ostringstream metrics_text;
  obs::write_metrics_text(metrics_text, registry.snapshot());
  const std::string text = metrics_text.str();
  EXPECT_NE(text.find("gauge engine.resident_bytes_peak"), std::string::npos);
  EXPECT_NE(text.find("counter engine.buckets_spilled 3"), std::string::npos);
  EXPECT_NE(text.find("counter engine.shards_written 3"), std::string::npos);
}

TEST_F(EngineTest, DegenerateCampaignsReturnEmptyFramesSilently) {
  bool progress_called = false;
  auto cfg = config();
  cfg.node_coverage = 0.0;
  cfg.progress = [&](std::size_t, std::size_t) { progress_called = true; };
  const CampaignResult zero_cov = run_campaign(cluster_, cfg);
  EXPECT_EQ(zero_cov.frame.size(), 0u);
  EXPECT_EQ(zero_cov.nodes_measured, 0u);
  EXPECT_FALSE(progress_called)
      << "a zero-bucket campaign must never invoke the progress callback";

  ClusterSpec empty_spec = cloudlab_spec();
  empty_spec.layout.nodes = 0;
  const Cluster empty_cluster(empty_spec);
  auto empty_cfg = default_config(empty_cluster, sgemm_workload(16384, 2), 2);
  empty_cfg.progress = [&](std::size_t, std::size_t) {
    progress_called = true;
  };
  const CampaignResult empty = run_campaign(empty_cluster, empty_cfg);
  EXPECT_EQ(empty.frame.size(), 0u);
  EXPECT_EQ(empty.gpus_measured, 0u);
  EXPECT_FALSE(progress_called);
}

TEST_F(EngineTest, ConfigHashSeparatesCampaigns) {
  const auto base = config();
  const std::uint64_t h = campaign_config_hash(cluster_, base);
  EXPECT_EQ(h, campaign_config_hash(cluster_, config()));

  auto runs = base;
  runs.runs_per_gpu = 5;
  EXPECT_NE(campaign_config_hash(cluster_, runs), h);
  auto day = base;
  day.day_of_week = 4;
  EXPECT_NE(campaign_config_hash(cluster_, day), h);
  auto salt = base;
  salt.salt = 99;
  EXPECT_NE(campaign_config_hash(cluster_, salt), h);
  auto coverage = base;
  coverage.node_coverage = 0.5;
  EXPECT_NE(campaign_config_hash(cluster_, coverage), h);

  // Workload *parameters* are identity too, not just the name:
  // `--reps` rebuilds the spec under the same name, and a checkpoint
  // measured under different reps must not pass as the same campaign.
  auto reps = base;
  reps.workload = sgemm_workload(16384, 3);
  ASSERT_EQ(reps.workload.name, base.workload.name);
  EXPECT_NE(campaign_config_hash(cluster_, reps), h);
  auto metric = base;
  metric.workload.metric = PerfMetric::kLongKernelSum;
  EXPECT_NE(campaign_config_hash(cluster_, metric), h);
  auto warmup = base;
  warmup.workload.warmup_iterations += 1;
  EXPECT_NE(campaign_config_hash(cluster_, warmup), h);
  auto kernel = base;
  kernel.workload.iteration.front().kernel.flops *= 2.0;
  EXPECT_NE(campaign_config_hash(cluster_, kernel), h);
  auto cap = base;
  cap.run_options.power_limit_override = Watts{150.0};
  EXPECT_NE(campaign_config_hash(cluster_, cap), h);
}

TEST_F(EngineTest, SweepBuildersNameJobsAfterTheirVariation) {
  const auto days = day_of_week_sweep(config());
  ASSERT_EQ(days.size(), 7u);
  EXPECT_EQ(days.front().name, "day-0");
  EXPECT_EQ(days.back().name, "day-6");
  EXPECT_EQ(days[3].config.day_of_week, 3);

  const auto caps = power_cap_sweep(config(), {150.0, 250.0});
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps[0].name, "cap-150w");
  EXPECT_EQ(caps[1].name, "cap-250w");
  EXPECT_THROW(power_cap_sweep(config(), {}), std::invalid_argument);
  EXPECT_THROW(power_cap_sweep(config(), {-5.0}), std::invalid_argument);
}

TEST_F(EngineTest, SweepResumeSkipsCompletedJobs) {
  const fs::path dir = fresh_dir("sweep");
  CampaignOptions opts;
  opts.checkpoint_dir = dir.string();
  const auto jobs = power_cap_sweep(config(/*runs=*/1), {150.0, 250.0});

  const auto first = run_campaign_sweep(cluster_, jobs, opts);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].result.stats.buckets_run, 3u);
  // The two cap campaigns measure different numbers: caps bite.
  EXPECT_NE(serialize_frame_shard(first[0].result.frame, 0),
            serialize_frame_shard(first[1].result.frame, 0));

  const auto second = run_campaign_sweep(cluster_, jobs, opts);
  for (std::size_t j = 0; j < second.size(); ++j) {
    EXPECT_EQ(second[j].result.stats.buckets_run, 0u)
        << "job " << second[j].name << " re-ran completed buckets";
    EXPECT_EQ(second[j].result.stats.buckets_restored, 3u);
    EXPECT_EQ(serialize_frame_shard(second[j].result.frame, 0),
              serialize_frame_shard(first[j].result.frame, 0));
  }

  CampaignJob bad;
  bad.name = "Bad Name!";
  bad.config = config();
  EXPECT_THROW(run_campaign_sweep(cluster_, {bad}, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
