#include "stats/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/hot.hpp"
#include "common/require.hpp"
#include "stats/kernels.hpp"

namespace gpuvar::stats {

GPUVAR_HOT double pearson(std::span<const double> xs, std::span<const double> ys) {
  GPUVAR_REQUIRE(xs.size() == ys.size());
  GPUVAR_REQUIRE(xs.size() >= 2);
  const std::size_t n = xs.size();
  const double mx = kernels::sum(xs) / static_cast<double>(n);
  const double my = kernels::sum(ys) / static_cast<double>(n);
  // Fused dot/sum-of-products kernel: sxy, sxx, syy in one sweep.
  const kernels::CenteredProducts cp = kernels::centered_products(xs, ys, mx, my);
  if (cp.sxx == 0.0 || cp.syy == 0.0) return 0.0;
  const double rho = cp.sxy / std::sqrt(cp.sxx * cp.syy);
  // Guard against floating point drift just past ±1.
  return std::clamp(rho, -1.0, 1.0);
}

std::vector<double> fractional_ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    // Index tie-breaker: equal values keep their input order, so ranks
    // are reproducible whatever sort algorithm runs underneath.
    return xs[a] != xs[b] ? xs[a] < xs[b] : a < b;
  });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

GPUVAR_HOT double spearman(std::span<const double> xs, std::span<const double> ys) {
  GPUVAR_REQUIRE(xs.size() == ys.size());
  GPUVAR_REQUIRE(xs.size() >= 2);
  const auto rx = fractional_ranks(xs);
  const auto ry = fractional_ranks(ys);
  return pearson(rx, ry);
}

std::string correlation_strength(double rho) {
  const double a = std::abs(rho);
  if (a >= 0.9) return "strong";
  if (a >= 0.6) return "moderate";
  if (a >= 0.3) return "weak";
  return "uncorrelated";
}

}  // namespace gpuvar::stats
