#include "core/experiment.hpp"
#include "core/engine.hpp"
#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace gpuvar {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  Cluster cluster_{cloudlab_spec()};
};

TEST_F(ExperimentTest, CoversAllGpusWithConfiguredRuns) {
  auto cfg = default_config(cluster_, sgemm_workload(16384, 3), 2);
  const auto result = run_campaign(cluster_, cfg);
  EXPECT_EQ(result.gpus_measured, cluster_.size());
  EXPECT_EQ(result.nodes_measured, 3u);
  EXPECT_EQ(result.frame.size(), cluster_.size() * 2);
}

TEST_F(ExperimentTest, RecordsCarryLocationAndMetrics) {
  auto cfg = default_config(cluster_, sgemm_workload(16384, 2), 1);
  const auto result = run_campaign(cluster_, cfg);
  for (std::size_t i = 0; i < result.frame.size(); ++i) {
    EXPECT_FALSE(result.frame.loc(i).name.empty());
    EXPECT_GT(result.frame.perf_ms()[i], 0.0);
    EXPECT_GT(result.frame.freq_mhz()[i], 0.0);
    EXPECT_GT(result.frame.power_w()[i], 0.0);
    EXPECT_GT(result.frame.temp_c()[i], 0.0);
  }
}

TEST_F(ExperimentTest, DeterministicAcrossInvocations) {
  auto cfg = default_config(cluster_, sgemm_workload(16384, 2), 2);
  const auto a = run_campaign(cluster_, cfg);
  const auto b = run_campaign(cluster_, cfg);
  ASSERT_EQ(a.frame.size(), b.frame.size());
  // Records arrive grouped by node; same config -> identical values.
  for (std::size_t i = 0; i < a.frame.size(); ++i) {
    EXPECT_EQ(a.frame.gpu_index(i), b.frame.gpu_index(i));
    EXPECT_DOUBLE_EQ(a.frame.perf_ms()[i], b.frame.perf_ms()[i]);
  }
}

TEST_F(ExperimentTest, NodeCoverageSubsamples) {
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(longhorn, pagerank_workload(3), 1);
  cfg.node_coverage = 0.25;
  const auto result = run_campaign(longhorn, cfg);
  EXPECT_EQ(result.nodes_measured, 26u);
  EXPECT_EQ(result.frame.size(), 26u * 4u);
}

TEST_F(ExperimentTest, DayTagStampsRecordsAndChangesNoise) {
  auto cfg = default_config(cluster_, sgemm_workload(16384, 2), 1);
  cfg.day_of_week = 2;
  const auto wed = run_campaign(cluster_, cfg);
  for (std::int16_t d : wed.frame.days_of_week()) EXPECT_EQ(d, 2);

  cfg.day_of_week = 3;
  const auto thu = run_campaign(cluster_, cfg);
  // Same hardware population, different transient draws.
  EXPECT_NE(wed.frame.perf_ms()[0], thu.frame.perf_ms()[0]);
  EXPECT_NEAR(wed.frame.perf_ms()[0] / thu.frame.perf_ms()[0], 1.0, 0.05);
}

TEST_F(ExperimentTest, MultiGpuWorkloadOneJobPerNode) {
  auto cfg = default_config(cluster_, resnet50_multi_workload(5), 1);
  const auto result = run_campaign(cluster_, cfg);
  // 3 nodes x 4 GPUs, one record per GPU.
  EXPECT_EQ(result.frame.size(), 12u);
  std::set<std::size_t> gpus;
  for (std::size_t i = 0; i < result.frame.size(); ++i) {
    gpus.insert(result.frame.gpu_index(i));
  }
  EXPECT_EQ(gpus.size(), 12u);
}

TEST_F(ExperimentTest, ProgressReportsEveryNodeJob) {
  // A real worker pool, not the inline fallback: the callback path
  // must complete (not deadlock) while workers take the progress lock
  // mid-dispatch — the regression the lockorder pass's
  // lock-held-across-wait finding guards against.
  ThreadPool pool(4);
  auto cfg = default_config(cluster_, sgemm_workload(16384, 2), 2);
  cfg.pool = &pool;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  cfg.progress = [&](std::size_t done, std::size_t total) {
    seen.emplace_back(done, total);  // serialized under the progress lock
  };
  const auto result = run_campaign(cluster_, cfg);
  ASSERT_EQ(seen.size(), result.nodes_measured);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // Counts are monotone 1..N whatever order the jobs finish in.
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, result.nodes_measured);
  }
}

TEST_F(ExperimentTest, RejectsBadConfig) {
  auto cfg = default_config(cluster_, sgemm_workload(16384, 1), 0);
  EXPECT_THROW(run_campaign(cluster_, cfg), std::invalid_argument);
}

TEST_F(ExperimentTest, ZeroCoverageIsAnEmptyResultNotAnError) {
  // Degenerate edge of a coverage sweep: measure nothing, report
  // nothing — and never invoke the progress callback with total 0.
  auto cfg = default_config(cluster_, sgemm_workload(16384, 2), 1);
  cfg.node_coverage = 0.0;
  bool progress_called = false;
  cfg.progress = [&](std::size_t, std::size_t) { progress_called = true; };
  const auto result = run_campaign(cluster_, cfg);
  EXPECT_EQ(result.frame.size(), 0u);
  EXPECT_EQ(result.gpus_measured, 0u);
  EXPECT_EQ(result.nodes_measured, 0u);
  EXPECT_FALSE(progress_called);
}

TEST_F(ExperimentTest, EmptyClusterIsAnEmptyResultNotAnError) {
  ClusterSpec spec = cloudlab_spec();
  spec.layout.nodes = 0;
  const Cluster empty(spec);
  auto cfg = default_config(empty, sgemm_workload(16384, 2), 1);
  bool progress_called = false;
  cfg.progress = [&](std::size_t, std::size_t) { progress_called = true; };
  const auto result = run_campaign(empty, cfg);
  EXPECT_EQ(result.frame.size(), 0u);
  EXPECT_EQ(result.nodes_measured, 0u);
  EXPECT_FALSE(progress_called);
}

}  // namespace
}  // namespace gpuvar
