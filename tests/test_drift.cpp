#include "core/drift.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gpuvar.hpp"

namespace gpuvar {
namespace {

std::vector<RunRecord> fleet_history(int gpus, int runs, double noise_ms,
                                     std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<RunRecord> records;
  for (int g = 0; g < gpus; ++g) {
    const double base = 2500.0 + rng.normal(0.0, 30.0);  // silicon spread
    for (int run = 0; run < runs; ++run) {
      RunRecord r;
      r.gpu_index = g;
      r.loc.name = "gpu" + std::to_string(g);
      r.run_index = run;
      r.perf_ms = base + rng.normal(0.0, noise_ms);
      r.freq_mhz = 1400.0;
      r.power_w = 298.0;
      r.temp_c = 60.0;
      records.push_back(std::move(r));
    }
  }
  return records;
}

void add_drift(std::vector<RunRecord>& records, std::size_t gpu,
               double ms_per_run) {
  for (auto& r : records) {
    if (r.gpu_index == gpu) r.perf_ms += ms_per_run * r.run_index;
  }
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

TEST(Drift, NoiseEstimateRecoversSigma) {
  const auto records = fleet_history(50, 20, 5.0);
  EXPECT_NEAR(estimate_run_noise_ms(frame_from(records)), 5.0, 1.2);
}

TEST(Drift, StableFleetRaisesNoFlags) {
  // The paper's core temporal finding: variability is persistent, not
  // drifting — so a healthy history must be silent.
  const auto records = fleet_history(80, 12, 5.0);
  EXPECT_TRUE(analyze_drift(frame_from(records)).empty());
}

TEST(Drift, DetectsADegradingGpu) {
  auto records = fleet_history(80, 12, 5.0);
  add_drift(records, 17, 8.0);  // ~+88 ms over the history (~3.5%)
  const auto flags = analyze_drift(frame_from(records));
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].gpu_index, 17u);
  EXPECT_GT(flags[0].drift_pct, 1.0);
  EXPECT_GT(flags[0].noise_sigmas, 4.0);
}

TEST(Drift, DetectsImprovementAsNegativeDrift) {
  auto records = fleet_history(40, 12, 5.0);
  add_drift(records, 3, -8.0);  // e.g. a heatsink was reseated
  const auto flags = analyze_drift(frame_from(records));
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_LT(flags[0].drift_pct, 0.0);
}

TEST(Drift, SortsBySeverity) {
  auto records = fleet_history(40, 12, 5.0);
  add_drift(records, 5, 6.0);
  add_drift(records, 9, 15.0);
  const auto flags = analyze_drift(frame_from(records));
  ASSERT_GE(flags.size(), 2u);
  EXPECT_EQ(flags[0].gpu_index, 9u);
}

TEST(Drift, SlowButStableGpuIsNotFlagged) {
  // A consistently slow GPU (the paper's outliers) is variability, not
  // drift.
  auto records = fleet_history(40, 12, 5.0);
  for (auto& r : records) {
    if (r.gpu_index == 7) r.perf_ms += 200.0;  // constant offset
  }
  for (const auto& f : analyze_drift(frame_from(records))) {
    EXPECT_NE(f.gpu_index, 7u);
  }
}

TEST(Drift, ShortHistoriesSkipped) {
  auto records = fleet_history(10, 4, 5.0);
  add_drift(records, 2, 50.0);
  EXPECT_TRUE(analyze_drift(frame_from(records)).empty());
}

TEST(Drift, ThresholdControlsSensitivity) {
  auto records = fleet_history(40, 12, 5.0);
  add_drift(records, 4, 3.5);  // borderline drift
  DriftOptions loose;
  loose.threshold_sigmas = 2.0;
  loose.min_drift_fraction = 0.003;
  DriftOptions strict;
  strict.threshold_sigmas = 12.0;
  EXPECT_FALSE(analyze_drift(frame_from(records), loose).empty());
  EXPECT_TRUE(analyze_drift(frame_from(records), strict).empty());
}

TEST(Drift, RejectsBadOptions) {
  const auto records = fleet_history(5, 8, 2.0);
  DriftOptions bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(analyze_drift(frame_from(records), bad),
               std::invalid_argument);
  bad = DriftOptions{};
  bad.min_runs = bad.baseline_runs;
  EXPECT_THROW(analyze_drift(frame_from(records), bad),
               std::invalid_argument);
}

TEST(Drift, RealCampaignIsStable) {
  // End-to-end: a simulated multi-run Vortex campaign must not drift.
  Cluster vortex(vortex_spec());
  auto cfg = default_config(vortex, sgemm_workload(25536, 5), 8);
  cfg.node_coverage = 0.3;
  const auto result = run_campaign(vortex, cfg);
  EXPECT_TRUE(analyze_drift(result.frame).empty());
}

}  // namespace
}  // namespace gpuvar
