#include "stats/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
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
  // (value, index) pairs: the sort reads each value from the pair it
  // moves, not through an index into xs.
  std::vector<std::pair<double, std::size_t>> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    // NaN compares unordered, so the comparator below would not be a
    // strict weak order over it.
    GPUVAR_REQUIRE_MSG(!std::isnan(xs[i]), "cannot rank a NaN");
    order[i] = {xs[i], i};
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    // Index tie-breaker: equal values keep their input order, so ranks
    // are reproducible whatever sort algorithm runs underneath.
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && order[j + 1].first == order[i].first) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k].second] = avg;
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
