// Cluster-size projection (§IV-D): fit a normal distribution to one
// cluster's per-GPU performance and project the variability a cluster of
// a different size would exhibit (the paper projects Longhorn's SGEMM
// spread to 9.4% at Summit scale).
#pragma once

#include <cstddef>

namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct SizeProjection {
  std::size_t source_gpus = 0;
  std::size_t target_gpus = 0;
  double source_variation_pct = 0.0;     ///< measured (box) variation
  double projected_variation_pct = 0.0;  ///< scaled-normal projection
};

/// Fits per-GPU median performance (box outliers excluded, matching the
/// paper's variance convention) and projects to `target_gpus`.
SizeProjection project_to_cluster_size(const query::Source& source,
                                       std::size_t target_gpus);

}  // namespace gpuvar
