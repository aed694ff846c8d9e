#include "core/projection.hpp"

#include "common/require.hpp"
#include "query/source.hpp"
#include "stats/boxplot.hpp"
#include "stats/normal.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar {

SizeProjection project_to_cluster_size(const query::Source& source,
                                       std::size_t target_gpus) {
  GPUVAR_REQUIRE(target_gpus >= 2);
  const auto gpus = per_gpu_medians(source.frame());
  GPUVAR_REQUIRE(gpus.size() >= 3);

  std::vector<double> perf;
  perf.reserve(gpus.size());
  for (const auto& g : gpus) perf.push_back(g.perf_ms);
  const auto box = stats::box_summary(perf);
  const auto healthy = stats::without_outliers(perf, box);
  GPUVAR_REQUIRE(healthy.size() >= 3);

  SizeProjection out;
  out.source_gpus = gpus.size();
  out.target_gpus = target_gpus;
  out.source_variation_pct = box.variation() * 100.0;
  out.projected_variation_pct =
      stats::project_variability(healthy, target_gpus) * 100.0;
  return out;
}

}  // namespace gpuvar
