#include "stats/quantile.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace gpuvar::stats {
namespace {

TEST(Quantile, MedianOddSample) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Quantile, MedianEvenSampleInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Quantile, Type7MatchesNumpy) {
  // numpy.percentile([1,2,3,4], 25) == 1.75 (linear / type 7)
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 3.25);
}

TEST(Quantile, ExtremesAreMinMax) {
  const std::vector<double> xs{9.0, 2.0, 7.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.3), 42.0);
}

TEST(Quantile, RejectsOutOfRangeQ) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(quantile(xs, 0.5), std::invalid_argument);
}

TEST(Quantile, MonotoneInQ) {
  Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal());
  double prev = quantile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = quantile(xs, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Quantile, SortedCopyDoesNotMutateInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const auto sorted = sorted_copy(xs);
  EXPECT_EQ(xs[0], 3.0);
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace gpuvar::stats
