// Metric-pair correlation analysis (the paper's scatter plots).
#pragma once

#include <string>
#include <vector>

#include "telemetry/record.hpp"
namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct MetricCorrelation {
  Metric x = Metric::kPerf;
  Metric y = Metric::kPerf;
  double rho = 0.0;       ///< Pearson
  double spearman = 0.0;  ///< rank correlation (robust to outliers)
  std::string strength;   ///< qualitative label
};

/// The four pairings the paper reports: perf↔temp, perf↔power, perf↔freq,
/// power↔temp.
struct CorrelationReport {
  MetricCorrelation perf_temp;
  MetricCorrelation perf_power;
  MetricCorrelation perf_freq;
  MetricCorrelation power_temp;

  std::vector<const MetricCorrelation*> all() const {
    return {&perf_temp, &perf_power, &perf_freq, &power_temp};
  }
};

/// Tunables for analyze_correlation. No knobs yet; exists for the
/// unified analyze_*(source, options) signature shape.
struct CorrelateOptions {};

/// Correlates two metric columns (zero-copy for a frame-backed source).
MetricCorrelation correlate_pair(const query::Source& source, Metric x,
                                 Metric y);

/// The four pairings of CorrelationReport. Each of the four columns is
/// ranked once and its ranks shared by every pairing it is in; every
/// field is bit-identical to the correlate_pair call for that pairing.
CorrelationReport analyze_correlation(const query::Source& source,
                                      const CorrelateOptions& options = {});

}  // namespace gpuvar
