#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gpuvar::stats {
namespace {

TEST(Histogram, BucketsValues) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 5.0);
}

TEST(Histogram, Fractions) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(0.7);
  h.add(3.5);
  EXPECT_DOUBLE_EQ(h.fraction(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.fraction(3), 1.0 / 3.0);
}

TEST(Histogram, ModeBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(1.5);
  h.add(1.6);
  h.add(0.5);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.5);
  const auto s = h.render(20);
  EXPECT_NE(s.find("####"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
}

}  // namespace
}  // namespace gpuvar::stats
