// Fixed-width histograms for distribution summaries.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace gpuvar::stats {

class Histogram {
 public:
  /// Buckets [lo, hi) into `bins` equal-width bins; values outside the
  /// range land in the edge bins (clamped) so no sample is dropped.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double bin_center(std::size_t bin) const;

  /// Fraction of samples in a bin (0 if empty histogram).
  double fraction(std::size_t bin) const;

  /// Index of the most populated bin.
  std::size_t mode_bin() const;

  /// Simple textual rendering: one line per bin with a bar of '#'.
  std::string render(std::size_t max_width = 50) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace gpuvar::stats
