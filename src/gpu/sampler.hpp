// Streaming telemetry collection.
//
// Real runs of the paper collected 18,800+ hours of 1 ms profiler samples;
// holding full series for every GPU is infeasible, so the paper (and this
// sampler) works from per-run summaries (medians). The sampler therefore
// supports two modes:
//
//   summary — streaming, O(1) memory: exact min/max/time-weighted mean per
//             metric plus fixed-resolution weighted medians (0.5 MHz /
//             0.1 W / 0.05 °C bins — far finer than the profiler's own
//             quantization).
//   series  — additionally stores decimated Sample rows for time-series
//             figures (Fig. 11, Fig. 25).
//
// The device reports *spans* (intervals of constant state), which keeps
// the accounting exact even when the simulator fast-forwards through a
// steady state.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "gpu/timeseries.hpp"

namespace gpuvar {

/// Weighted streaming quantile estimator over a fixed grid.
class StreamingQuantile {
 public:
  StreamingQuantile(double lo, double hi, double resolution);

  void add(double value, double weight);
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
  double lo_, resolution_;
  std::vector<double> weights_;
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
  void record_span(Seconds t, Seconds dt, MegaHertz f, Watts p, Celsius temp);

  TelemetrySummary summary() const;
  const TimeSeries& series() const { return series_; }
  const SamplerOptions& options() const { return opts_; }

  void reset();

 private:
  SamplerOptions opts_;
  StreamingQuantile freq_;
  StreamingQuantile power_;
  StreamingQuantile temp_;
  std::size_t series_emitted_ = 0;
  TimeSeries series_;
};

}  // namespace gpuvar
