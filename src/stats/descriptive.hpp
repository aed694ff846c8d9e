// Descriptive statistics over spans of doubles.
#pragma once

#include <cstddef>
#include <span>

namespace gpuvar::stats {

/// Summary of a sample: count, extremes, central moments.
struct Descriptive {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;  ///< Sample variance (n-1 denominator); 0 if n < 2.
  double stddev = 0.0;
  double sum = 0.0;

  /// Coefficient of variation (stddev / |mean|); 0 when mean == 0.
  double cv() const { return mean != 0.0 ? stddev / (mean < 0 ? -mean : mean) : 0.0; }
};

/// Computes descriptive statistics via the kernels in
/// stats/kernels.hpp: one fused min/max/sum/sumsq sweep, then a
/// numerically stable centered pass for the variance. Bit-identical on
/// every host and at any thread count (see kernels.hpp). Requires a
/// non-empty sample.
Descriptive describe(std::span<const double> xs);

double mean(std::span<const double> xs);
double sample_variance(std::span<const double> xs);
double sample_stddev(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

}  // namespace gpuvar::stats
