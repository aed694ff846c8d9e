#include "core/compare.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/require.hpp"
#include "core/drift.hpp"
#include "query/source.hpp"
#include "stats/kernels.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

CampaignComparison analyze_compare(const query::Source& before,
                                   const query::Source& after,
                                   const CompareOptions& options) {
  GPUVAR_REQUIRE(!before.empty() && !after.empty());
  GPUVAR_REQUIRE(options.significance_sigmas > 0.0);

  const auto before_gpus = per_gpu_medians(before.frame());
  const auto after_gpus = per_gpu_medians(after.frame());
  std::map<std::string, const GpuAggregate*> by_name;
  for (const auto& g : before_gpus) by_name.emplace(g.loc.name, &g);

  CampaignComparison cmp;

  // Noise floor: run-to-run noise of whichever campaign has repeats;
  // fall back to the other, then to zero (single-run campaigns).
  double noise_ms = 0.0;
  for (const query::Source* campaign : {&before, &after}) {
    try {
      noise_ms = std::max(noise_ms, estimate_run_noise_ms(*campaign));
    } catch (const std::invalid_argument&) {
      // single-run campaign: no successive differences available
    }
  }

  std::vector<double> deltas;
  for (const auto& g : after_gpus) {
    const auto it = by_name.find(g.loc.name);
    if (it == by_name.end()) {
      ++cmp.only_after;
      continue;
    }
    const GpuAggregate& b = *it->second;
    GpuDelta d;
    d.name = g.loc.name;
    d.before_ms = b.perf_ms;
    d.after_ms = g.perf_ms;
    GPUVAR_ASSERT(b.perf_ms > 0.0);
    d.delta_pct = (g.perf_ms - b.perf_ms) / b.perf_ms * 100.0;
    d.before_power_w = b.power_w;
    d.after_power_w = g.power_w;
    d.before_temp_c = b.temp_c;
    d.after_temp_c = g.temp_c;
    deltas.push_back(d.delta_pct);
    cmp.all.push_back(std::move(d));
    ++cmp.matched_gpus;
  }
  cmp.only_before = before_gpus.size() - cmp.matched_gpus;
  GPUVAR_REQUIRE_MSG(cmp.matched_gpus > 0,
                     "campaigns share no GPU names");

  // Both inputs are scratch vectors, so select the medians in place.
  cmp.median_delta_pct = stats::kernels::median_inplace(deltas);
  std::vector<double> before_ms;
  before_ms.reserve(cmp.all.size());
  for (const auto& d : cmp.all) before_ms.push_back(d.before_ms);
  const double median_before = stats::kernels::median_inplace(before_ms);
  cmp.noise_floor_pct =
      median_before > 0.0 ? noise_ms / median_before * 100.0 : 0.0;

  const double threshold_pct =
      std::max(options.significance_sigmas * cmp.noise_floor_pct,
               options.min_delta_fraction * 100.0);
  for (const auto& d : cmp.all) {
    if (std::abs(d.delta_pct) >= threshold_pct) {
      cmp.significant.push_back(d);
    }
  }
  std::sort(cmp.significant.begin(), cmp.significant.end(),
            [](const GpuDelta& a, const GpuDelta& b) {
              // Magnitude descending; the (unique) GPU name breaks float
              // ties deterministically.
              const double ka = std::abs(a.delta_pct);
              const double kb = std::abs(b.delta_pct);
              return ka != kb ? ka > kb : a.name < b.name;
            });
  return cmp;
}

}  // namespace gpuvar
