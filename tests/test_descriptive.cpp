#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gpuvar::stats {
namespace {

TEST(Descriptive, SingleValue) {
  const std::vector<double> xs{3.0};
  const auto d = describe(xs);
  EXPECT_EQ(d.count, 1u);
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.variance, 0.0);
  EXPECT_DOUBLE_EQ(d.min, 3.0);
  EXPECT_DOUBLE_EQ(d.max, 3.0);
}

TEST(Descriptive, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto d = describe(xs);
  EXPECT_DOUBLE_EQ(d.mean, 5.0);
  EXPECT_NEAR(d.variance, 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(d.min, 2.0);
  EXPECT_DOUBLE_EQ(d.max, 9.0);
  EXPECT_DOUBLE_EQ(d.sum, 40.0);
}

TEST(Descriptive, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(describe(xs), std::invalid_argument);
}

TEST(Descriptive, NegativeValues) {
  const std::vector<double> xs{-1.0, -2.0, -3.0};
  const auto d = describe(xs);
  EXPECT_DOUBLE_EQ(d.mean, -2.0);
  EXPECT_DOUBLE_EQ(d.min, -3.0);
  EXPECT_DOUBLE_EQ(d.max, -1.0);
  EXPECT_NEAR(d.cv(), d.stddev / 2.0, 1e-12);
}

TEST(Descriptive, CvZeroMean) {
  const std::vector<double> xs{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(describe(xs).cv(), 0.0);
}

TEST(Descriptive, NumericallyStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: huge offset, tiny variance.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(1e9 + (i % 2));
  const auto d = describe(xs);
  EXPECT_NEAR(d.variance, 0.25, 0.01);
}

TEST(Descriptive, HelpersAgreeWithDescribe) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

}  // namespace
}  // namespace gpuvar::stats
