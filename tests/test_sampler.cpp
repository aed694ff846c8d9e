#include "gpu/sampler.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gpuvar {
namespace {

// The grid StreamingQuantile had before its bins were windowed: every
// bin allocated up front and quantile() scanning all of them. The
// windowed one must match it to the bit.
class DenseQuantile {
 public:
  DenseQuantile(double lo, double hi, double resolution)
      : lo_(lo), resolution_(resolution) {
    weights_.assign(
        static_cast<std::size_t>(std::ceil((hi - lo) / resolution)) + 1, 0.0);
  }

  void add(double value, double weight) {
    if (weight == 0.0) return;
    if (total_weight_ == 0.0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    const double x = (value - lo_) / resolution_;
    const std::size_t last = weights_.size() - 1;
    std::size_t idx = 0;
    if (x > 0.0) {
      idx = x < static_cast<double>(last) ? static_cast<std::size_t>(x) : last;
    }
    weights_[idx] += weight;
    total_weight_ += weight;
    weighted_sum_ += value * weight;
  }

  double quantile(double q) const {
    const double target = q * total_weight_;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      acc += weights_[i];
      if (acc >= target) {
        const double center =
            lo_ + (static_cast<double>(i) + 0.5) * resolution_;
        return std::clamp(center, min_, max_);
      }
    }
    return max_;
  }

  double lo_, resolution_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  double weighted_sum_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

// The bits of v, with every NaN as one: IEEE leaves a NaN result's sign
// and payload open, and a compiler may commute an operation's operands.
std::uint64_t bits(double v) {
  return std::isnan(v) ? 0x7ff8000000000000u : std::bit_cast<std::uint64_t>(v);
}

TEST(StreamingQuantile, WindowedBinsMatchDenseGridBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double qs[] = {0.0, 1e-9, 0.5, 1.0 - 1e-12, 1.0};
  Rng rng(2022);
  for (int trial = 0; trial < 3000; ++trial) {
    const double lo = rng.uniform(-50.0, 50.0);
    const double hi = lo + rng.uniform(1.0, 500.0);
    const double res = rng.uniform(0.05, 1.0);
    StreamingQuantile windowed(lo, hi, res);
    DenseQuantile dense(lo, hi, res);
    // Values cluster in a random sub-range, so windows start anywhere
    // and grow both ways.
    const double centre = rng.uniform(lo, hi);
    const double spread = (hi - lo) * rng.uniform(0.0, 0.5);
    const int adds = 1 + static_cast<int>(rng.uniform_index(300));
    double value = centre;
    for (int i = 0; i < adds; ++i) {
      // Long runs of a repeated value, as a steady ladder index gives.
      if (i == 0 || !rng.bernoulli(0.7)) {
        const double u = rng.uniform();
        if (u < 0.03) {
          value = nan;
        } else if (u < 0.06) {
          value = inf;
        } else if (u < 0.09) {
          value = -inf;
        } else if (u < 0.14) {
          value = lo - rng.uniform(0.0, 100.0);
        } else if (u < 0.19) {
          value = hi + rng.uniform(0.0, 100.0);
        } else if (u < 0.22) {
          value = rng.bernoulli(0.5) ? 0.0 : -0.0;
        } else if (u < 0.32) {
          // One ulp off the last value: same bin, new min or max.
          value = std::nextafter(value, rng.bernoulli(0.5) ? inf : -inf);
        } else {
          value = centre + rng.uniform(-spread, spread);
        }
      }
      const double weight = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 2.0);
      windowed.add(value, weight);
      dense.add(value, weight);
    }
    ASSERT_EQ(bits(windowed.total_weight()), bits(dense.total_weight_));
    ASSERT_EQ(bits(windowed.weighted_sum()), bits(dense.weighted_sum_));
    if (windowed.empty()) continue;
    ASSERT_EQ(bits(windowed.min()), bits(dense.min_)) << "trial " << trial;
    ASSERT_EQ(bits(windowed.max()), bits(dense.max_)) << "trial " << trial;
    for (const double q : qs) {
      ASSERT_EQ(bits(windowed.quantile(q)), bits(dense.quantile(q)))
          << "trial " << trial << " q " << q;
    }
  }
}

TEST(StreamingQuantile, ExactMinMaxMean) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  q.add(10.0, 1.0);
  q.add(20.0, 1.0);
  q.add(90.0, 2.0);
  EXPECT_DOUBLE_EQ(q.min(), 10.0);
  EXPECT_DOUBLE_EQ(q.max(), 90.0);
  EXPECT_DOUBLE_EQ(q.mean(), (10.0 + 20.0 + 180.0) / 4.0);
  EXPECT_DOUBLE_EQ(q.total_weight(), 4.0);
}

TEST(StreamingQuantile, WeightedMedian) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  q.add(10.0, 1.0);
  q.add(50.0, 10.0);  // dominates
  q.add(90.0, 1.0);
  EXPECT_NEAR(q.median(), 50.0, 0.1);
}

TEST(StreamingQuantile, MedianAtResolution) {
  StreamingQuantile q(0.0, 10.0, 0.5);
  for (int i = 0; i < 100; ++i) q.add(3.0, 1.0);
  EXPECT_NEAR(q.median(), 3.0, 0.5);
}

TEST(StreamingQuantile, QuantilesMonotone) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  for (int i = 1; i <= 100; ++i) q.add(i, 1.0);
  EXPECT_LE(q.quantile(0.25), q.quantile(0.5));
  EXPECT_LE(q.quantile(0.5), q.quantile(0.75));
  EXPECT_NEAR(q.quantile(0.25), 25.0, 1.1);
}

TEST(StreamingQuantile, EmptyThrows) {
  StreamingQuantile q(0.0, 1.0, 0.1);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.median(), std::invalid_argument);
  EXPECT_THROW(q.mean(), std::invalid_argument);
}

TEST(StreamingQuantile, ZeroWeightIgnored) {
  StreamingQuantile q(0.0, 1.0, 0.1);
  q.add(0.5, 0.0);
  EXPECT_TRUE(q.empty());
}

TEST(Sampler, SummaryAggregatesSpans) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  s.record_span(Seconds{1.0}, Seconds{1.0}, MegaHertz{1300.0}, Watts{300.0}, Celsius{70.0});
  const auto sum = s.summary();
  EXPECT_DOUBLE_EQ(sum.duration.value(), 2.0);
  EXPECT_DOUBLE_EQ(sum.energy.value(), 590.0);
  EXPECT_DOUBLE_EQ(sum.freq.min, 1300.0);
  EXPECT_DOUBLE_EQ(sum.freq.max, 1400.0);
  EXPECT_NEAR(sum.power.mean, 295.0, 1e-9);
  EXPECT_NEAR(sum.temp.mean, 65.0, 1e-9);
}

TEST(Sampler, MedianIsTimeWeighted) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{9.0}, MegaHertz{1500.0}, Watts{100.0}, Celsius{50.0});
  s.record_span(Seconds{9.0}, Seconds{1.0}, MegaHertz{1000.0}, Watts{300.0}, Celsius{90.0});
  const auto sum = s.summary();
  EXPECT_NEAR(sum.freq.median, 1500.0, 1.0);
  EXPECT_NEAR(sum.power.median, 100.0, 0.5);
}

TEST(Sampler, NoSeriesByDefault) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  EXPECT_TRUE(s.series().empty());
}

TEST(Sampler, SeriesDecimatedAtInterval) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{0.1};
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  // 10 samples at 0.0, 0.1, ..., 0.9.
  EXPECT_EQ(s.series().size(), 10u);
  EXPECT_DOUBLE_EQ(s.series()[0].t.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.series()[1].freq.value(), 1400.0);
}

TEST(Sampler, SeriesIntervalClampedToProfilerFloor) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{1e-6};  // below the 1 ms nvprof floor
  Sampler s(opts);
  EXPECT_DOUBLE_EQ(s.options().series_interval.value(), kMinSamplingInterval.value());
}

TEST(Sampler, SeriesRespectsCap) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{0.001};
  opts.max_series_samples = 100;
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{10.0}, MegaHertz{1.0}, Watts{1.0}, Celsius{1.0});
  EXPECT_EQ(s.series().size(), 100u);
}

TEST(Sampler, ResetClearsEverything) {
  SamplerOptions opts;
  opts.keep_series = true;
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  s.reset();
  EXPECT_TRUE(s.series().empty());
  EXPECT_DOUBLE_EQ(s.summary().duration.value(), 0.0);
}

TEST(Sampler, ZeroDurationSpanIgnored) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{0.0}, MegaHertz{1.0}, Watts{1.0}, Celsius{1.0});
  EXPECT_DOUBLE_EQ(s.summary().duration.value(), 0.0);
}

}  // namespace
}  // namespace gpuvar
