#include "core/projection.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

std::vector<RunRecord> gaussian_records(int n, double mean, double sigma,
                                        std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<RunRecord> rs;
  for (int i = 0; i < n; ++i) {
    RunRecord r;
    r.gpu_index = i;
    r.perf_ms = rng.normal(mean, sigma);
    r.freq_mhz = 1400.0;
    r.power_w = 298.0;
    r.temp_c = 60.0;
    rs.push_back(r);
  }
  return rs;
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

TEST(Projection, LonghornToSummitGrows) {
  // §IV-D: Longhorn's spread projected to Summit size gives slightly
  // higher variability than measured at Longhorn size.
  const auto rs = gaussian_records(416, 2200.0, 38.0);
  const auto proj = project_to_cluster_size(frame_from(rs), 27648);
  EXPECT_EQ(proj.source_gpus, 416u);
  EXPECT_EQ(proj.target_gpus, 27648u);
  EXPECT_GT(proj.projected_variation_pct, proj.source_variation_pct);
  // sigma/mu = 1.7% -> ~9-10% source box variation, ~13-15% at 27k GPUs.
  EXPECT_NEAR(proj.source_variation_pct, 9.3, 1.5);
  EXPECT_NEAR(proj.projected_variation_pct, 13.8, 2.0);
}

TEST(Projection, OutliersExcludedFromFit) {
  auto rs = gaussian_records(200, 2200.0, 20.0);
  // Inject gross outliers; the projection must barely move.
  auto with_outliers = rs;
  for (int i = 0; i < 3; ++i) {
    RunRecord r = rs[0];
    r.gpu_index = 1000 + i;
    r.perf_ms = 4000.0;
    with_outliers.push_back(r);
  }
  const auto clean = project_to_cluster_size(frame_from(rs), 10000);
  const auto dirty = project_to_cluster_size(frame_from(with_outliers), 10000);
  EXPECT_NEAR(dirty.projected_variation_pct, clean.projected_variation_pct,
              0.15 * clean.projected_variation_pct);
}

TEST(Projection, SameSizeRoughlyReproducesMeasured) {
  const auto rs = gaussian_records(400, 1000.0, 15.0, 7);
  const auto proj = project_to_cluster_size(frame_from(rs), 400);
  EXPECT_NEAR(proj.projected_variation_pct, proj.source_variation_pct,
              0.35 * proj.source_variation_pct);
}

TEST(Projection, RejectsDegenerateInput) {
  const auto rs = gaussian_records(2, 100.0, 1.0);
  EXPECT_THROW(project_to_cluster_size(frame_from(rs), 100), std::invalid_argument);
  const auto ok = gaussian_records(10, 100.0, 1.0);
  EXPECT_THROW(project_to_cluster_size(frame_from(ok), 1), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
