#include "core/flagging.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/frame.hpp"
#include "cluster/cluster.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

RunRecord rec(std::size_t gpu, double perf, double power, double temp,
              int cabinet = 0) {
  RunRecord r;
  r.gpu_index = gpu;
  r.loc.cabinet = cabinet;
  r.loc.name = "gpu" + std::to_string(gpu);
  r.perf_ms = perf;
  r.freq_mhz = 1400.0;
  r.power_w = power;
  r.temp_c = temp;
  return r;
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

std::vector<RunRecord> healthy_population(int n) {
  std::vector<RunRecord> rs;
  for (int i = 0; i < n; ++i) {
    rs.push_back(rec(i, 2500.0 + (i % 7), 297.0 + 0.1 * (i % 5),
                     60.0 + (i % 9), i / 4));
  }
  return rs;
}

TEST(Flagging, CleanPopulationNoFlags) {
  const auto report = analyze_flags(frame_from(healthy_population(40)));
  EXPECT_TRUE(report.gpus.empty());
  EXPECT_TRUE(report.cabinets.empty());
}

TEST(Flagging, SlowOutlierFlagged) {
  auto rs = healthy_population(40);
  rs.push_back(rec(99, 3400.0, 297.0, 62.0));
  const auto report = analyze_flags(frame_from(rs));
  ASSERT_EQ(report.gpus.size(), 1u);
  EXPECT_EQ(report.gpus[0].gpu_index, 99u);
  EXPECT_TRUE(report.gpus[0].has(FlagReason::kSlowOutlier));
  EXPECT_GT(report.gpus[0].severity, 0.0);
}

TEST(Flagging, UnexplainedPowerDropFlagged) {
  // The Summit row-H signature: low power, normal temperature.
  auto rs = healthy_population(40);
  rs.push_back(rec(99, 2503.0, 255.0, 61.0));
  const auto report = analyze_flags(frame_from(rs));
  ASSERT_EQ(report.gpus.size(), 1u);
  EXPECT_TRUE(report.gpus[0].has(FlagReason::kUnexplainedPowerDrop));
}

TEST(Flagging, PowerDropExplainedByHeatIsNotUnexplained) {
  auto rs = healthy_population(40);
  rs.push_back(rec(99, 2503.0, 255.0, 95.0));  // hot: thermal, not board
  const auto report = analyze_flags(frame_from(rs));
  ASSERT_EQ(report.gpus.size(), 1u);
  EXPECT_FALSE(report.gpus[0].has(FlagReason::kUnexplainedPowerDrop));
  EXPECT_TRUE(report.gpus[0].has(FlagReason::kThermalOutlier));
}

TEST(Flagging, SortedBySeverity) {
  auto rs = healthy_population(40);
  rs.push_back(rec(98, 2900.0, 297.0, 61.0));
  rs.push_back(rec(99, 3800.0, 297.0, 61.0));  // much worse
  const auto report = analyze_flags(frame_from(rs));
  ASSERT_EQ(report.gpus.size(), 2u);
  EXPECT_EQ(report.gpus[0].gpu_index, 99u);
  EXPECT_GE(report.gpus[0].severity, report.gpus[1].severity);
}

TEST(Flagging, PumpSignatureFlagsCabinet) {
  // Frontera c197: members simultaneously slow, cool, low-power.
  auto rs = healthy_population(40);
  rs.push_back(rec(90, 2560.0, 250.0, 45.0, /*cabinet=*/9));
  rs.push_back(rec(91, 2555.0, 248.0, 44.0, /*cabinet=*/9));
  const auto report = analyze_flags(frame_from(rs));
  ASSERT_EQ(report.cabinets.size(), 1u);
  EXPECT_EQ(report.cabinets[0].cabinet, 9);
  EXPECT_NE(report.cabinets[0].note.find("pump"), std::string::npos);
}

TEST(Flagging, RepeatOffendersAcrossExperiments) {
  // GPU 99 flagged in both workloads, GPU 98 in only one.
  auto sgemm = healthy_population(40);
  sgemm.push_back(rec(99, 3400.0, 297.0, 61.0));
  sgemm.push_back(rec(98, 3300.0, 297.0, 61.0));
  auto resnet = healthy_population(40);
  resnet.push_back(rec(99, 3500.0, 297.0, 61.0));

  const std::vector<FlagReport> reports{analyze_flags(frame_from(sgemm)),
                                        analyze_flags(frame_from(resnet))};
  const auto offenders = repeat_offenders(reports, 2);
  ASSERT_EQ(offenders.size(), 1u);
  EXPECT_EQ(offenders[0].gpu_index, 99u);
  EXPECT_TRUE(offenders[0].has(FlagReason::kRepeatOffender));
}

TEST(Flagging, ScoreAgainstGroundTruth) {
  Cluster cluster(longhorn_spec());
  const auto truth = cluster.faulty_gpus();
  ASSERT_FALSE(truth.empty());

  FlagReport report;
  // Flag the first two genuinely faulty GPUs plus one healthy one.
  GpuFlag a;
  a.gpu_index = truth[0];
  report.gpus.push_back(a);
  GpuFlag b;
  b.gpu_index = truth[1];
  report.gpus.push_back(b);
  std::size_t healthy = 0;
  while (std::find(truth.begin(), truth.end(), healthy) != truth.end()) {
    ++healthy;
  }
  GpuFlag c;
  c.gpu_index = healthy;
  report.gpus.push_back(c);

  const auto score = score_against_ground_truth(cluster, report);
  EXPECT_EQ(score.true_positives, 2);
  EXPECT_EQ(score.false_positives, 1);
  EXPECT_EQ(score.false_negatives, static_cast<int>(truth.size()) - 2);
  EXPECT_NEAR(score.precision, 2.0 / 3.0, 1e-9);
}

TEST(Flagging, ReasonNames) {
  EXPECT_EQ(to_string(FlagReason::kSlowOutlier), "slow outlier");
  EXPECT_EQ(to_string(FlagReason::kUnexplainedPowerDrop),
            "unexplained power drop");
}

}  // namespace
}  // namespace gpuvar
