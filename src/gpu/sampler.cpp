#include "gpu/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/timeseries.hpp"

namespace gpuvar {

namespace {
// The first window's size in bins.
constexpr std::size_t kMinWindow = 64;
}  // namespace

StreamingQuantile::StreamingQuantile(double lo, double hi, double resolution)
    : lo_(lo), resolution_(resolution) {
  GPUVAR_REQUIRE(hi > lo);
  GPUVAR_REQUIRE(resolution > 0.0);
  last_bin_ = static_cast<std::size_t>(std::ceil((hi - lo) / resolution));
}

void StreamingQuantile::grow(std::size_t bin) {
  if (weights_.empty()) base_ = bin;
  const std::size_t step = std::max(weights_.size(), kMinWindow);
  std::size_t first = base_;
  std::size_t end = base_ + weights_.size();
  if (bin < base_) {
    first = std::min(bin, base_ - std::min(base_, step));
  } else {
    end = std::min(std::max(bin + 1, end + step), last_bin_ + 1);
  }
  std::vector<double> wider(end - first, 0.0);
  std::copy(weights_.begin(), weights_.end(),
            wider.begin() + static_cast<std::ptrdiff_t>(base_ - first));
  weights_ = std::move(wider);
  base_ = first;
}

double StreamingQuantile::center(std::size_t bin) const {
  const double c = lo_ + (static_cast<double>(bin) + 0.5) * resolution_;
  return std::clamp(c, min_, max_);
}

double StreamingQuantile::mean() const {
  GPUVAR_REQUIRE(!empty());
  return weighted_sum_ / total_weight_;
}

double StreamingQuantile::quantile(double q) const {
  GPUVAR_REQUIRE(!empty());
  GPUVAR_REQUIRE(q >= 0.0 && q <= 1.0);
  const double target = q * total_weight_;
  // A scan of the whole grid sums 0 up to the window, where bin 0
  // already meets a target <= 0, and its sum stops growing past the
  // window. Only the window can answer any other target.
  if (0.0 >= target) return center(0);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i];
    if (acc >= target) return center(base_ + i);
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

void Sampler::emit_series(Seconds t, Seconds dt, MegaHertz f, Watts p,
                          Celsius temp) {
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
