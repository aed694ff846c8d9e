#include "stats/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/quantile.hpp"

namespace gpuvar::stats {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<double> sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.normal(2500.0, 40.0));
  return xs;
}

// The lengths cover: one partial block, exactly one block, block+tail
// of every phase, and sizes big enough for the ninther pivot path.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1003};

// The determinism contract written out longhand, one element at a
// time: element i accumulates into lane i % 4 from the identity (0.0,
// +inf for min, -inf for max), min/max are `acc < x ? acc : x` and
// `acc > x ? acc : x`, and lanes combine as (l0 op l1) op (l2 op l3).
// This TU builds with -ffp-contract=off, like the kernels, so neither
// side may fuse a mul+add.
struct LaneRef {
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  double sumsq[4] = {0.0, 0.0, 0.0, 0.0};
  double min[4] = {kInf, kInf, kInf, kInf};
  double max[4] = {-kInf, -kInf, -kInf, -kInf};
  double css[4] = {0.0, 0.0, 0.0, 0.0};
  double sxy[4] = {0.0, 0.0, 0.0, 0.0};
  double syy[4] = {0.0, 0.0, 0.0, 0.0};

  LaneRef(std::span<const double> xs, std::span<const double> ys, double mx,
          double my) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::size_t l = i % 4;
      const double x = xs[i];
      const double dx = x - mx;
      const double dy = ys[i] - my;
      sum[l] += x;
      sumsq[l] += x * x;
      min[l] = min[l] < x ? min[l] : x;
      max[l] = max[l] > x ? max[l] : x;
      css[l] += dx * dx;
      sxy[l] += dx * dy;
      syy[l] += dy * dy;
    }
  }

  static double add(const double (&l)[4]) {
    return (l[0] + l[1]) + (l[2] + l[3]);
  }
  static double lo(const double (&l)[4]) {
    const double a = l[0] < l[1] ? l[0] : l[1];
    const double b = l[2] < l[3] ? l[2] : l[3];
    return a < b ? a : b;
  }
  static double hi(const double (&l)[4]) {
    const double a = l[0] > l[1] ? l[0] : l[1];
    const double b = l[2] > l[3] ? l[2] : l[3];
    return a > b ? a : b;
  }
};

void expect_reductions_match_reference(std::span<const double> xs,
                                       std::span<const double> ys,
                                       const std::string& where) {
  constexpr double kMean = 2500.0;
  const LaneRef ref(xs, ys, kMean, kMean);
  const auto s = kernels::describe_sweep(xs);
  EXPECT_EQ(bits(s.sum), bits(LaneRef::add(ref.sum))) << where;
  EXPECT_EQ(bits(s.sumsq), bits(LaneRef::add(ref.sumsq))) << where;
  EXPECT_EQ(bits(s.min), bits(LaneRef::lo(ref.min))) << where;
  EXPECT_EQ(bits(s.max), bits(LaneRef::hi(ref.max))) << where;
  EXPECT_EQ(bits(kernels::sum(xs)), bits(LaneRef::add(ref.sum))) << where;
  EXPECT_EQ(bits(kernels::centered_sumsq(xs, kMean)),
            bits(LaneRef::add(ref.css)))
      << where;
  const auto cp = kernels::centered_products(xs, ys, kMean, kMean);
  EXPECT_EQ(bits(cp.sxy), bits(LaneRef::add(ref.sxy))) << where;
  EXPECT_EQ(bits(cp.sxx), bits(LaneRef::add(ref.css))) << where;
  EXPECT_EQ(bits(cp.syy), bits(LaneRef::add(ref.syy))) << where;
  const auto mm = kernels::min_max(xs);
  EXPECT_EQ(bits(mm.min), bits(LaneRef::lo(ref.min))) << where;
  EXPECT_EQ(bits(mm.max), bits(LaneRef::hi(ref.max))) << where;
}

TEST(StatsKernels, ScalarBackendAlwaysAvailable) {
  EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
  EXPECT_STREQ(kernels::backend_name(kernels::active_backend()), "scalar");
}

// The lane formula above is the contract every kernel build has to
// reproduce bit for bit, whatever instructions it compiles to; the three
// tests below hold the one implementation to it.
TEST(StatsKernels, ReductionsBitIdenticalAcrossBackends) {
  for (std::size_t n : kLengths) {
    const auto xs = sample(n, 7 + n);
    const auto ys = sample(n, 900 + n);
    expect_reductions_match_reference(xs, ys, "n=" + std::to_string(n));
  }
}

TEST(StatsKernels, UnalignedSpanHeadsBitIdentical) {
  // Spans need not start on a 4-block boundary of their buffer; lanes
  // count from the span's first element, not the buffer's.
  for (std::size_t n : kLengths) {
    const auto xbuf = sample(n + 3, 7 + n);
    const auto ybuf = sample(n + 3, 900 + n);
    for (std::size_t off = 1; off <= 3; ++off) {
      expect_reductions_match_reference(
          std::span<const double>(xbuf.data() + off, n),
          std::span<const double>(ybuf.data() + off, n),
          "n=" + std::to_string(n) + " offset=" + std::to_string(off));
    }
  }
}

TEST(StatsKernels, NanAndInfPropagateIdenticallyAcrossBackends) {
  // A NaN or +/-inf at the head, middle or tail, at every head offset:
  // min/max keep or drop it by position, sums carry it.
  for (std::size_t n : kLengths) {
    auto xbuf = sample(n + 3, 7 + n);
    const auto ybuf = sample(n + 3, 900 + n);
    for (std::size_t off = 0; off <= 3; ++off) {
      const std::span<const double> ys(ybuf.data() + off, n);
      const std::span<double> xs(xbuf.data() + off, n);
      const std::string at =
          "n=" + std::to_string(n) + " offset=" + std::to_string(off);
      for (std::size_t poison : {std::size_t{0}, n / 3, n - 1}) {
        for (double special : {kNan, kInf, -kInf}) {
          const double saved = xs[poison];
          xs[poison] = special;
          expect_reductions_match_reference(
              xs, ys,
              at + " special=" + std::to_string(special) + "@" +
                  std::to_string(poison));
          xs[poison] = saved;
        }
      }
    }
  }
}

TEST(StatsKernels, InfSumsStayInfWithMatchingSign) {
  std::vector<double> xs = {1.0, kInf, 2.0, 3.0, 4.0};
  EXPECT_EQ(kernels::sum(xs), kInf);
  const auto mm = kernels::min_max(xs);
  EXPECT_EQ(mm.max, kInf);
  EXPECT_EQ(mm.min, 1.0);
  xs[1] = -kInf;
  EXPECT_EQ(kernels::sum(xs), -kInf);
  EXPECT_EQ(kernels::min_max(xs).min, -kInf);
}

TEST(StatsKernels, EmptyAndSingleElementContracts) {
  const std::vector<double> empty;
  EXPECT_EQ(kernels::sum(empty), 0.0);
  EXPECT_EQ(kernels::centered_sumsq(empty, 5.0), 0.0);
  EXPECT_THROW(kernels::describe_sweep(empty), std::invalid_argument);
  EXPECT_THROW(kernels::min_max(empty), std::invalid_argument);

  const std::vector<double> one = {42.5};
  const auto s = kernels::describe_sweep(one);
  EXPECT_EQ(s.sum, 42.5);
  EXPECT_EQ(s.min, 42.5);
  EXPECT_EQ(s.max, 42.5);
  EXPECT_EQ(s.sumsq, 42.5 * 42.5);
  std::vector<double> scratch = one;
  EXPECT_EQ(kernels::quantile_inplace(scratch, 0.75), 42.5);
}

TEST(StatsKernels, SelectionMatchesSortedQuantilesBitForBit) {
  for (std::size_t n : kLengths) {
    const auto xs = sample(n, 1000 + n);
    const auto sorted = sorted_copy(xs);
    for (double q : {0.0, 0.05, 0.25, 0.5, 0.731, 0.75, 0.95, 1.0}) {
      std::vector<double> scratch = xs;
      EXPECT_EQ(bits(kernels::quantile_inplace(scratch, q)),
                bits(quantile_sorted(sorted, q)))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(StatsKernels, SelectionHandlesDuplicateHeavyAndConstantColumns) {
  // Constant and few-distinct-value columns are the worst case for a
  // two-way partition; the three-way partition must stay O(n).
  std::vector<double> constant(100000, 3.25);
  std::vector<double> scratch = constant;
  EXPECT_EQ(kernels::median_inplace(scratch), 3.25);

  Rng rng(11);
  std::vector<double> coarse;
  for (int i = 0; i < 9999; ++i) {
    coarse.push_back(static_cast<double>(rng.uniform_index(4)));
  }
  const auto sorted = sorted_copy(coarse);
  for (double q : {0.1, 0.5, 0.9}) {
    scratch = coarse;
    EXPECT_EQ(bits(kernels::quantile_inplace(scratch, q)),
              bits(quantile_sorted(sorted, q)));
  }
}

TEST(StatsKernels, NthInplacePartitionsAroundK) {
  auto xs = sample(501, 77);
  const auto sorted = sorted_copy(xs);
  for (std::size_t k : {std::size_t{0}, std::size_t{250}, std::size_t{500}}) {
    std::vector<double> scratch = xs;
    kernels::nth_inplace(scratch, k);
    EXPECT_EQ(scratch[k], sorted[k]);
    for (std::size_t i = 0; i < k; ++i) EXPECT_LE(scratch[i], scratch[k]);
    for (std::size_t i = k + 1; i < scratch.size(); ++i) {
      EXPECT_GE(scratch[i], scratch[k]);
    }
  }
  EXPECT_THROW(kernels::nth_inplace(xs, xs.size()), std::invalid_argument);
}

TEST(StatsKernels, QuantileInplaceRejectsBadArguments) {
  std::vector<double> empty;
  EXPECT_THROW(kernels::quantile_inplace(empty, 0.5), std::invalid_argument);
  std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(kernels::quantile_inplace(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(kernels::quantile_inplace(xs, 1.1), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar::stats
