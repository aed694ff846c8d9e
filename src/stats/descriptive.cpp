#include "stats/descriptive.hpp"

#include <cmath>

#include "common/hot.hpp"
#include "common/require.hpp"
#include "stats/kernels.hpp"

namespace gpuvar::stats {

GPUVAR_HOT Descriptive describe(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  Descriptive d;
  d.count = xs.size();
  // Fused min/max/sum/sumsq sweep, then a centered second pass for the
  // variance: raw moments (sumsq - sum^2/n) cancel catastrophically for
  // large-offset data, while sum((x - mean)^2) stays exact to the
  // sample's own scale. Two vectorized passes still beat the scalar
  // Welford recurrence, which serializes on the running mean.
  const kernels::Sweep s = kernels::describe_sweep(xs);
  const std::size_t n = xs.size();
  d.min = s.min;
  d.max = s.max;
  d.sum = s.sum;
  d.mean = s.sum / static_cast<double>(n);
  const double m2 = kernels::centered_sumsq(xs, d.mean);
  d.variance = (n > 1) ? m2 / static_cast<double>(n - 1) : 0.0;
  d.stddev = std::sqrt(d.variance);
  return d;
}

GPUVAR_HOT double mean(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  return kernels::sum(xs) / static_cast<double>(xs.size());
}
GPUVAR_HOT double min_of(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  return kernels::min_max(xs).min;
}
GPUVAR_HOT double max_of(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  return kernels::min_max(xs).max;
}

}  // namespace gpuvar::stats
