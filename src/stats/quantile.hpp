// Quantile estimation (R type-7 linear interpolation, the default in R,
// NumPy and pandas — and thus in the paper's analysis pipeline).
#pragma once

#include <span>
#include <vector>

namespace gpuvar::stats {

/// Quantile of an *already sorted* sample; q in [0, 1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Quantile of an unsorted sample: one scratch copy, then O(n)
/// selection (kernels::quantile_inplace) — bit-identical to sorting
/// the copy and calling quantile_sorted, without the O(n log n) sort.
double quantile(std::span<const double> xs, double q);

double median(std::span<const double> xs);

/// Returns a sorted copy.
std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace gpuvar::stats
