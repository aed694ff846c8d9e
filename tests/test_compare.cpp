#include "core/compare.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gpuvar.hpp"

namespace gpuvar {
namespace {

std::vector<RunRecord> campaign(int gpus, int runs, double noise_ms,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RunRecord> records;
  for (int g = 0; g < gpus; ++g) {
    Rng grng(42, "base/gpu:" + std::to_string(g));  // bases shared across campaigns
    const double base = 2500.0 + grng.normal(0.0, 30.0);
    for (int run = 0; run < runs; ++run) {
      RunRecord r;
      r.gpu_index = g;
      r.loc.name = "gpu" + std::to_string(g);
      r.run_index = run;
      r.perf_ms = base + rng.normal(0.0, noise_ms);
      r.power_w = 298.0;
      r.temp_c = 60.0;
      r.freq_mhz = 1400.0;
      records.push_back(std::move(r));
    }
  }
  return records;
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

TEST(Compare, IdenticalCampaignsShowNoSignificantChange) {
  // Same per-GPU baselines, fresh run noise: nothing should clear the
  // significance bar.
  const auto before = campaign(60, 3, 4.0, 1);
  const auto after = campaign(60, 3, 4.0, 2);  // same bases (path-seeded)
  const auto cmp = analyze_compare(frame_from(before), frame_from(after));
  EXPECT_EQ(cmp.matched_gpus, 60u);
  EXPECT_EQ(cmp.only_before, 0u);
  EXPECT_EQ(cmp.only_after, 0u);
  EXPECT_NEAR(cmp.median_delta_pct, 0.0, 0.25);
  EXPECT_TRUE(cmp.significant.empty());
  EXPECT_GT(cmp.noise_floor_pct, 0.0);
}

TEST(Compare, DetectsARepairedGpu) {
  const auto before_base = campaign(60, 3, 4.0, 1);
  auto before = before_base;
  for (auto& r : before) {
    if (r.loc.name == "gpu7") r.perf_ms += 300.0;  // broken before
  }
  const auto after = campaign(60, 3, 4.0, 2);  // fixed now
  const auto cmp = analyze_compare(frame_from(before), frame_from(after));
  ASSERT_EQ(cmp.significant.size(), 1u);
  EXPECT_EQ(cmp.significant[0].name, "gpu7");
  EXPECT_LT(cmp.significant[0].delta_pct, -5.0);  // got faster
}

TEST(Compare, DetectsADegradedGpu) {
  const auto before = campaign(60, 3, 4.0, 1);
  auto after = campaign(60, 3, 4.0, 2);
  for (auto& r : after) {
    if (r.loc.name == "gpu3") r.perf_ms *= 1.06;
  }
  const auto cmp = analyze_compare(frame_from(before), frame_from(after));
  ASSERT_GE(cmp.significant.size(), 1u);
  EXPECT_EQ(cmp.significant[0].name, "gpu3");
  EXPECT_GT(cmp.significant[0].delta_pct, 4.0);
}

TEST(Compare, CountsUnmatchedGpus) {
  auto before = campaign(10, 2, 2.0, 1);
  auto after = campaign(10, 2, 2.0, 2);
  // Rename two GPUs in `after` (replaced hardware).
  for (auto& r : after) {
    if (r.loc.name == "gpu0") r.loc.name = "gpu0-replacement";
  }
  const auto cmp = analyze_compare(frame_from(before), frame_from(after));
  EXPECT_EQ(cmp.matched_gpus, 9u);
  EXPECT_EQ(cmp.only_before, 1u);
  EXPECT_EQ(cmp.only_after, 1u);
}

TEST(Compare, SortsSignificantBySeverity) {
  const auto before = campaign(40, 3, 2.0, 1);
  auto after = campaign(40, 3, 2.0, 2);
  for (auto& r : after) {
    if (r.loc.name == "gpu1") r.perf_ms *= 1.03;
    if (r.loc.name == "gpu2") r.perf_ms *= 1.10;
  }
  const auto cmp = analyze_compare(frame_from(before), frame_from(after));
  ASSERT_GE(cmp.significant.size(), 2u);
  EXPECT_EQ(cmp.significant[0].name, "gpu2");
}

TEST(Compare, DisjointCampaignsThrow) {
  auto before = campaign(5, 2, 2.0, 1);
  auto after = campaign(5, 2, 2.0, 2);
  for (auto& r : after) r.loc.name += "-other";
  EXPECT_THROW(analyze_compare(frame_from(before), frame_from(after)), std::invalid_argument);
}

TEST(Compare, EndToEndMaintenanceStory) {
  // The full §VII loop on the simulator: before = Longhorn with its bad
  // cabinet; after = the same cluster with the degraded boards fixed
  // (fault plan removed). The comparison must spotlight exactly the GPUs
  // whose condition changed.
  auto broken_spec = longhorn_spec();
  auto fixed_spec = longhorn_spec();
  fixed_spec.faults.rules.clear();
  Cluster broken(broken_spec);
  Cluster fixed(fixed_spec);

  auto cfg_b = default_config(broken, sgemm_workload(25536, 6), 2);
  cfg_b.node_coverage = 0.4;
  auto cfg_f = default_config(fixed, sgemm_workload(25536, 6), 2);
  cfg_f.node_coverage = 0.4;
  const auto before = run_experiment(broken, cfg_b);
  const auto after = run_experiment(fixed, cfg_f);

  const auto cmp = analyze_compare(before.frame, after.frame);
  EXPECT_GT(cmp.matched_gpus, 100u);
  ASSERT_FALSE(cmp.significant.empty());
  // Every significant improvement corresponds to a previously-faulty GPU
  // (cooling faults shift temps more than runtime; power caps dominate).
  int confirmed = 0;
  for (const auto& d : cmp.significant) {
    if (d.delta_pct < 0.0) {
      for (std::size_t i = 0; i < broken.size(); ++i) {
        if (broken.gpu(i).loc.name == d.name &&
            broken.gpu(i).faults.any()) {
          ++confirmed;
          break;
        }
      }
    }
  }
  EXPECT_GT(confirmed, 0);
}

}  // namespace
}  // namespace gpuvar
