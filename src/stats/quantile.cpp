#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>

#include "common/hot.hpp"
#include "common/require.hpp"
#include "stats/kernels.hpp"

namespace gpuvar::stats {

GPUVAR_HOT double quantile_sorted(std::span<const double> sorted, double q) {
  GPUVAR_REQUIRE(!sorted.empty());
  GPUVAR_REQUIRE(q >= 0.0 && q <= 1.0);
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  // R type 7: h = (n-1)q; interpolate between floor(h) and floor(h)+1.
  const double h = static_cast<double>(n - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

GPUVAR_HOT std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

GPUVAR_HOT double quantile(std::span<const double> xs, double q) {
  // One scratch copy, then O(n) selection instead of an O(n log n)
  // copy-sort; kernels::quantile_inplace reproduces quantile_sorted's
  // interpolation bit-for-bit (the k-th order statistic is a value
  // fact, independent of how the rest of the scratch ends up ordered).
  std::vector<double> scratch(xs.begin(), xs.end());
  return kernels::quantile_inplace(scratch, q);
}

GPUVAR_HOT double median(std::span<const double> xs) { return quantile(xs, 0.5); }

}  // namespace gpuvar::stats
