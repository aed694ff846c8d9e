// Streaming telemetry collection.
//
// Real runs of the paper collected 18,800+ hours of 1 ms profiler samples;
// holding full series for every GPU is infeasible, so the paper (and this
// sampler) works from per-run summaries (medians). The sampler therefore
// supports two modes:
//
//   summary — streaming: exact min/max/time-weighted mean per metric plus
//             fixed-resolution weighted medians (0.5 MHz / 0.1 W /
//             0.05 °C bins — far finer than the profiler's own
//             quantization).
//   series  — additionally stores decimated Sample rows for time-series
//             figures (Fig. 11, Fig. 25).
//
// The bins are windowed: a StreamingQuantile allocates only the range of
// bins its values touched (grown geometrically on demand) and quantile()
// scans only that window. Every bin outside it holds 0, so the result is
// the dense grid's to the bit. A run's values span a few hundred bins of
// the thousands the grid covers, so a fresh Sampler costs no zeroing and
// a summary no full scan.
//
// record_span() runs once per simulated tick, so it and add() live in
// this header; a value equal to the last one added reuses its bin.
//
// The device reports *spans* (intervals of constant state), which keeps
// the accounting exact even when the simulator fast-forwards through a
// steady state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/timeseries.hpp"

namespace gpuvar {

/// Weighted streaming quantile estimator over a fixed grid.
class StreamingQuantile {
 public:
  StreamingQuantile(double lo, double hi, double resolution);

  void add(double value, double weight) {
    GPUVAR_REQUIRE(weight >= 0.0);
    if (weight == 0.0) return;
    // A repeat of the last value lands in its bin, and min/max already
    // include it. NaN never compares equal, so it always takes the
    // full path.
    if (!(value == last_value_)) {
      if (total_weight_ == 0.0) {
        min_ = max_ = value;
      } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
      }
      // The bin is floor(x) clamped to [0, last]. Truncation equals
      // floor for x > 0, and comparing before the cast keeps huge or
      // NaN x defined.
      const double x = (value - lo_) / resolution_;
      std::size_t bin = 0;
      if (x > 0.0) {
        bin = x < static_cast<double>(last_bin_) ? static_cast<std::size_t>(x)
                                                 : last_bin_;
      }
      // Unsigned wrap sends a bin below the window here too.
      if (bin - base_ >= weights_.size()) grow(bin);
      last_value_ = value;
      slot_ = bin - base_;
    }
    weights_[slot_] += weight;
    total_weight_ += weight;
    weighted_sum_ += value * weight;
  }

  double total_weight() const { return total_weight_; }
  /// Σ value·weight, accumulated in add() order.
  double weighted_sum() const { return weighted_sum_; }
  bool empty() const { return total_weight_ <= 0.0; }

  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;  ///< weight-averaged mean (exact)
  /// Weighted quantile at the grid resolution; q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  /// Widen the window to hold `bin`, at least doubling it.
  void grow(std::size_t bin);
  /// The grid value bin `bin` stands for, clamped to [min, max].
  double center(std::size_t bin) const;

  double lo_, resolution_;
  std::size_t last_bin_ = 0; ///< the grid's last bin
  std::size_t base_ = 0;     ///< grid bin of weights_[0]
  std::vector<double> weights_;  ///< bins [base_, base_ + size)
  double last_value_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t slot_ = 0;     ///< weights_ index of last_value_'s bin
  double total_weight_ = 0.0;
  double weighted_sum_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

struct MetricSummary {
  double median = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct TelemetrySummary {
  MetricSummary freq;
  MetricSummary power;
  MetricSummary temp;
  Seconds duration{};
  Joules energy{};
};

struct SamplerOptions {
  /// Sampling interval for the stored series; clamped up to the profiler
  /// floor (1 ms), mirroring the nvprof/rocm-smi limitation in §III.
  Seconds series_interval{0.05};
  bool keep_series = false;
  /// Hard cap on stored samples (oldest kept; excess dropped) so an
  /// accidental full-length collection cannot exhaust memory.
  std::size_t max_series_samples = 2'000'000;
};

class Sampler {
 public:
  explicit Sampler(const SamplerOptions& opts = {});

  /// Account an interval [t, t+dt) of constant state.
  void record_span(Seconds t, Seconds dt, MegaHertz f, Watts p,
                   Celsius temp) {
    GPUVAR_REQUIRE(dt >= Seconds{});
    if (dt == Seconds{}) return;
    freq_.add(f.value(), dt.value());
    power_.add(p.value(), dt.value());
    temp_.add(temp.value(), dt.value());
    if (opts_.keep_series) emit_series(t, dt, f, p, temp);
  }

  TelemetrySummary summary() const;
  const TimeSeries& series() const { return series_; }
  const SamplerOptions& options() const { return opts_; }

  void reset();

 private:
  /// Append the span's decimated samples to the series.
  void emit_series(Seconds t, Seconds dt, MegaHertz f, Watts p, Celsius temp);

  SamplerOptions opts_;
  StreamingQuantile freq_;
  StreamingQuantile power_;
  StreamingQuantile temp_;
  std::size_t series_emitted_ = 0;
  TimeSeries series_;
};

}  // namespace gpuvar
