#include "core/user_impact.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "gpuvar.hpp"

namespace gpuvar {
namespace {

RunRecord rec(std::size_t gpu, double perf) {
  RunRecord r;
  r.gpu_index = gpu;
  r.loc.name = "gpu" + std::to_string(gpu);
  r.perf_ms = perf;
  r.freq_mhz = 1400.0;
  r.power_w = 298.0;
  r.temp_c = 60.0;
  return r;
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

TEST(UserImpact, SingleGpuJobMatchesPopulationMean) {
  // k = 1: E[max] is just the mean of the per-GPU medians.
  std::vector<RunRecord> rs;
  for (int i = 0; i < 5; ++i) rs.push_back(rec(i, 100.0 + i * 10.0));
  const auto impact = job_impact(frame_from(rs), 1);
  EXPECT_NEAR(impact.expected_slowdown, 120.0 / 120.0, 1e-12);
}

TEST(UserImpact, FullWidthJobAlwaysGetsTheWorstGpu) {
  std::vector<RunRecord> rs;
  for (int i = 0; i < 6; ++i) rs.push_back(rec(i, 100.0 + i));
  const auto impact = job_impact(frame_from(rs), 6);
  // With k = n the max is deterministic: the slowest GPU.
  EXPECT_NEAR(impact.expected_slowdown, 105.0 / 102.5, 1e-12);
  EXPECT_NEAR(impact.p95_slowdown, impact.expected_slowdown, 1e-12);
}

TEST(UserImpact, ExpectedSlowdownGrowsWithJobWidth) {
  Rng rng(1);
  std::vector<RunRecord> rs;
  for (int i = 0; i < 200; ++i) {
    rs.push_back(rec(i, rng.normal(2500.0, 40.0)));
  }
  double prev = 0.0;
  for (int k : {1, 2, 4, 8, 16}) {
    const auto impact = job_impact(frame_from(rs), k);
    EXPECT_GT(impact.expected_slowdown, prev);
    EXPECT_GE(impact.p95_slowdown, impact.expected_slowdown - 1e-12);
    prev = impact.expected_slowdown;
  }
}

TEST(UserImpact, MatchesMonteCarlo) {
  Rng rng(2);
  std::vector<RunRecord> rs;
  std::vector<double> perf;
  for (int i = 0; i < 50; ++i) {
    const double p = rng.lognormal(std::log(2500.0), 0.02);
    rs.push_back(rec(i, p));
    perf.push_back(p);
  }
  const auto impact = job_impact(frame_from(rs), 4);

  // Monte Carlo of the same quantity.
  Rng mc(3);
  double sum = 0.0;
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) {
    const auto picks = mc.sample_without_replacement(perf.size(), 4);
    double worst = 0.0;
    for (auto idx : picks) worst = std::max(worst, perf[idx]);
    sum += worst;
  }
  const double med = stats::median(perf);
  EXPECT_NEAR(impact.expected_slowdown, sum / trials / med, 0.002);
}

TEST(UserImpact, PAnySlowMatchesCombinatorics) {
  // 8 fast + 2 slow GPUs: P(any slow | k) = 1 - C(8,k)/C(10,k).
  std::vector<RunRecord> rs;
  for (int i = 0; i < 8; ++i) rs.push_back(rec(i, 100.0));
  for (int i = 8; i < 10; ++i) rs.push_back(rec(i, 120.0));
  EXPECT_NEAR(job_impact(frame_from(rs), 1).p_any_slow, 0.2, 1e-12);
  EXPECT_NEAR(job_impact(frame_from(rs), 4).p_any_slow,
              1.0 - (70.0 / 210.0), 1e-12);  // C(8,4)/C(10,4)
  EXPECT_NEAR(job_impact(frame_from(rs), 9).p_any_slow, 1.0, 1e-12);
}

TEST(UserImpact, TableCoversPowersOfTwo) {
  Rng rng(4);
  std::vector<RunRecord> rs;
  for (int i = 0; i < 64; ++i) rs.push_back(rec(i, rng.normal(100.0, 2.0)));
  const auto table = analyze_user_impact(frame_from(rs));
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].gpus_per_job, 1);
  EXPECT_EQ(table[3].gpus_per_job, 8);
}

TEST(UserImpact, PaperHeadlineShapeOnLonghorn) {
  // §VII: single-GPU jobs have a real chance of a >6% slower GPU and
  // 4-GPU jobs a far higher one.
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(longhorn, sgemm_workload(25536, 8), 1);
  const auto result = run_campaign(longhorn, cfg);
  const auto one = job_impact(result.frame, 1);
  const auto four = job_impact(result.frame, 4);
  EXPECT_GT(one.p_any_slow, 0.03);
  EXPECT_GT(four.p_any_slow, 1.5 * one.p_any_slow);
  EXPECT_GT(four.expected_slowdown, one.expected_slowdown);
  // Consistency with the simpler independent-draw estimate.
  EXPECT_NEAR(four.p_any_slow,
              slow_assignment_probability(result.frame, 4, 0.06), 0.06);
}

TEST(UserImpact, RejectsBadInput) {
  std::vector<RunRecord> rs{rec(0, 100.0)};
  EXPECT_THROW(job_impact(frame_from(rs), 2), std::invalid_argument);
  EXPECT_THROW(job_impact(frame_from(rs), 0), std::invalid_argument);
  EXPECT_THROW(job_impact(frame_from(rs), 1, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
