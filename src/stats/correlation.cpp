#include "stats/correlation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

namespace {

/// A value's sort key: unsigned order of the keys is the order of the
/// doubles (flip every bit of a negative value, only the sign bit of a
/// non-negative one). -0.0 becomes +0.0 first, so the two tie as they
/// compare equal.
std::uint64_t order_key(double x) {
  constexpr std::uint64_t kSign = 0x8000000000000000ull;
  const auto bits = std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

struct Keyed {
  std::uint64_t key;
  std::size_t index;
};

}  // namespace

GPUVAR_HOT std::vector<double> fractional_ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n == 0) return {};
  // LSD radix sort of (key, index), one byte a pass. Each pass is
  // stable and the input is in index order, so equal values end in
  // index order: the tie-break a comparator sort would need spelled
  // out, whatever the data.
  std::vector<Keyed> order(n);
  std::vector<Keyed> spare(n);
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    // NaN is unordered: it has no place in the order to rank.
    GPUVAR_REQUIRE_MSG(!std::isnan(xs[i]), "cannot rank a NaN");
    const std::uint64_t key = order_key(xs[i]);
    order[i] = {key, i};
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  for (std::size_t d = 0; d < 8; ++d) {
    std::array<std::size_t, 256>& at = counts[d];
    // A byte every key shares would leave the order as it is.
    if (at[(order[0].key >> (8 * d)) & 0xff] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : at) sum += std::exchange(c, sum);
    for (const Keyed& k : order) spare[at[(k.key >> (8 * d)) & 0xff]++] = k;
    order.swap(spare);
  }
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && order[j + 1].key == order[i].key) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k].index] = avg;
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
