// Campaign comparison: the before/after-maintenance workflow.
//
// Operators acting on flag reports (§VII) need to verify the fix: did
// replacing the GPU / fixing the pump actually move the numbers? This
// module matches two campaigns' records by GPU name and reports per-GPU
// deltas, the population-level shift, and the GPUs whose change clears
// the fleet's run-to-run noise floor.
#pragma once

#include <string>
#include <vector>

namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct GpuDelta {
  std::string name;
  double before_ms = 0.0;  ///< per-GPU median, first campaign
  double after_ms = 0.0;   ///< per-GPU median, second campaign
  double delta_pct = 0.0;  ///< (after - before) / before * 100
  double before_power_w = 0.0;
  double after_power_w = 0.0;
  double before_temp_c = 0.0;
  double after_temp_c = 0.0;
};

struct CampaignComparison {
  std::size_t matched_gpus = 0;      ///< present in both campaigns
  std::size_t only_before = 0;       ///< measured only in the first
  std::size_t only_after = 0;        ///< measured only in the second
  double median_delta_pct = 0.0;     ///< population-level shift
  double noise_floor_pct = 0.0;      ///< run-to-run noise, as % of median
  /// GPUs whose |delta| exceeds `significance_sigmas` noise floors,
  /// sorted by |delta| descending.
  std::vector<GpuDelta> significant;
  /// All matched GPUs (same order as significant's superset, by name).
  std::vector<GpuDelta> all;
};

struct CompareOptions {
  double significance_sigmas = 3.0;
  /// Ignore deltas below this fraction even if they clear the noise test.
  double min_delta_fraction = 0.005;
};

/// Matches records by GPU name. Requires each campaign to be non-empty
/// and at least one GPU to appear in both.
CampaignComparison analyze_compare(const query::Source& before,
                                   const query::Source& after,
                                   const CompareOptions& options = {});

}  // namespace gpuvar
