#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace gpuvar::stats {
namespace {

TEST(Pearson, PerfectPositive) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson(ys, xs), 0.0);
}

TEST(Pearson, IndependentSeriesNearZero) {
  Rng rng(1);
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.normal());
    ys.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(Pearson, InvariantToAffineTransform) {
  Rng rng(2);
  std::vector<double> xs, ys;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    xs.push_back(x);
    ys.push_back(x + 0.5 * rng.normal());
  }
  const double base = pearson(xs, ys);
  std::vector<double> xs2;
  for (double x : xs) xs2.push_back(3.0 * x - 17.0);
  EXPECT_NEAR(pearson(xs2, ys), base, 1e-10);
}

TEST(Pearson, RejectsMismatchedSizes) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0};
  EXPECT_THROW(pearson(xs, ys), std::invalid_argument);
}

TEST(Pearson, RejectsTooFewPoints) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(pearson(xs, xs), std::invalid_argument);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 50; ++i) {
    xs.push_back(i);
    ys.push_back(i * i * i);  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
  EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Spearman, HandlesTies) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 2.0, 2.0, 3.0};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Spearman, RobustToOneOutlier) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(i);
  }
  ys.back() = 1e9;  // massive outlier barely moves the rank correlation
  EXPECT_GT(spearman(xs, ys), 0.99);
}

/// The index-permutation ranking fractional_ranks used before it sorted
/// (value, index) pairs: the reference its ranks must match bit for bit.
std::vector<double> reference_ranks(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return xs[a] != xs[b] ? xs[a] < xs[b] : a < b;
  });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

TEST(FractionalRanks, MatchIndexPermutationReferenceBitForBit) {
  Rng rng(11);
  std::vector<std::vector<double>> inputs = {{4.5}, {2.0, 1.0}, {3.0, 3.0}};
  // Long tie runs: 50,000 values drawn from five levels.
  std::vector<double> ties;
  for (int i = 0; i < 50000; ++i) {
    ties.push_back(static_cast<double>(rng.uniform_index(5)) * 0.25);
  }
  inputs.push_back(ties);
  // Signed zeros compare equal, so they share one tie group.
  std::vector<double> zeros;
  for (int i = 0; i < 1000; ++i) {
    zeros.push_back(i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : rng.normal());
  }
  inputs.push_back(zeros);
  inputs.push_back({-0.0, 0.0});
  inputs.push_back({0.0, -0.0, 0.0, -0.0});
  // 50,000 continuous values with a sprinkling of exact repeats.
  std::vector<double> wide;
  for (int i = 0; i < 50000; ++i) {
    wide.push_back(i % 97 == 0 ? 1.0 : rng.normal(1.0, 0.1));
  }
  inputs.push_back(wide);
  for (const auto& xs : inputs) {
    const std::vector<double> want = reference_ranks(xs);
    const std::vector<double> got = fractional_ranks(xs);
    ASSERT_EQ(got.size(), xs.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "n=" << xs.size();
  }
}

TEST(FractionalRanks, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs{1.0, nan, 2.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_THROW(fractional_ranks(xs), std::invalid_argument);
  EXPECT_THROW(fractional_ranks(std::vector<double>{nan}),
               std::invalid_argument);
  EXPECT_THROW(spearman(xs, ys), std::invalid_argument);
  EXPECT_THROW(spearman(ys, xs), std::invalid_argument);
}

TEST(CorrelationStrength, Labels) {
  EXPECT_EQ(correlation_strength(-0.97), "strong");
  EXPECT_EQ(correlation_strength(0.76), "moderate");
  EXPECT_EQ(correlation_strength(0.46), "weak");
  EXPECT_EQ(correlation_strength(-0.09), "uncorrelated");
}

}  // namespace
}  // namespace gpuvar::stats
