#include "gpu/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/timeseries.hpp"

namespace gpuvar {

StreamingQuantile::StreamingQuantile(double lo, double hi, double resolution)
    : lo_(lo), resolution_(resolution) {
  GPUVAR_REQUIRE(hi > lo);
  GPUVAR_REQUIRE(resolution > 0.0);
  const auto bins = static_cast<std::size_t>(
      std::ceil((hi - lo) / resolution));
  weights_.assign(bins + 1, 0.0);
}

void StreamingQuantile::add(double value, double weight) {
  GPUVAR_REQUIRE(weight >= 0.0);
  if (weight == 0.0) return;
  if (total_weight_ == 0.0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  // The bin is floor(x) clamped to [0, last]. Truncation equals floor
  // for x > 0, and comparing before the cast keeps huge or NaN x defined.
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

double StreamingQuantile::mean() const {
  GPUVAR_REQUIRE(!empty());
  return weighted_sum_ / total_weight_;
}

double StreamingQuantile::quantile(double q) const {
  GPUVAR_REQUIRE(!empty());
  GPUVAR_REQUIRE(q >= 0.0 && q <= 1.0);
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

Sampler::Sampler(const SamplerOptions& opts)
    : opts_(opts),
      freq_(0.0, 3000.0, 0.5),
      power_(0.0, 800.0, 0.1),
      temp_(0.0, 130.0, 0.05) {
  opts_.series_interval = std::max(opts_.series_interval, kMinSamplingInterval);
}

void Sampler::record_span(Seconds t, Seconds dt, MegaHertz f, Watts p,
                          Celsius temp) {
  GPUVAR_REQUIRE(dt >= Seconds{});
  if (dt == Seconds{}) return;
  freq_.add(f.value(), dt.value());
  power_.add(p.value(), dt.value());
  temp_.add(temp.value(), dt.value());

  if (!opts_.keep_series) return;
  // Emit decimated samples at the configured interval across the span.
  // Sample times derive from an integer index so accumulated float error
  // can never add or drop a sample.
  const double interval = opts_.series_interval.value();
  const Seconds end = t + dt;
  while (series_.size() < opts_.max_series_samples) {
    const Seconds st{static_cast<double>(series_emitted_) * interval};
    if (st >= end - Seconds{1e-15}) break;
    if (st >= t) series_.push(Sample{st, f, p, temp});
    ++series_emitted_;
  }
}

namespace {
MetricSummary summarize(const StreamingQuantile& q) {
  MetricSummary m;
  if (q.empty()) return m;
  m.median = q.median();
  m.mean = q.mean();
  m.min = q.min();
  m.max = q.max();
  return m;
}
}  // namespace

TelemetrySummary Sampler::summary() const {
  TelemetrySummary s;
  s.freq = summarize(freq_);
  s.power = summarize(power_);
  s.temp = summarize(temp_);
  // The span durations and p·dt, summed in record order from 0.
  s.duration = Seconds{freq_.total_weight()};
  s.energy = Joules{power_.weighted_sum()};
  return s;
}

void Sampler::reset() {
  freq_ = StreamingQuantile(0.0, 3000.0, 0.5);
  power_ = StreamingQuantile(0.0, 800.0, 0.1);
  temp_ = StreamingQuantile(0.0, 130.0, 0.05);
  series_emitted_ = 0;
  series_.clear();
}

}  // namespace gpuvar
