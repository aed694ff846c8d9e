#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/require.hpp"

namespace gpuvar::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GPUVAR_REQUIRE(bins > 0);
  GPUVAR_REQUIRE(hi > lo);
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) {
  auto idx = static_cast<long long>(std::floor((x - lo_) / width_));
  idx = std::clamp<long long>(idx, 0,
                              static_cast<long long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bin_lo(std::size_t bin) const {
  GPUVAR_REQUIRE(bin < counts_.size());
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + width_; }

double Histogram::bin_center(std::size_t bin) const {
  return bin_lo(bin) + width_ / 2.0;
}

double Histogram::fraction(std::size_t bin) const {
  GPUVAR_REQUIRE(bin < counts_.size());
  return total_ == 0
             ? 0.0
             : static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::size_t Histogram::mode_bin() const {
  return static_cast<std::size_t>(
      std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
}

std::string Histogram::render(std::size_t max_width) const {
  const std::size_t peak =
      total_ == 0 ? 1 : std::max<std::size_t>(1, counts_[mode_bin()]);
  std::string out;
  char line[128];
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar_len = static_cast<std::size_t>(
        std::llround(static_cast<double>(counts_[b]) /
                     static_cast<double>(peak) * static_cast<double>(max_width)));
    std::snprintf(line, sizeof(line), "[%10.3f, %10.3f) %8zu ", bin_lo(b),
                  bin_hi(b), counts_[b]);
    out += line;
    out.append(bar_len, '#');
    out.push_back('\n');
  }
  return out;
}

}  // namespace gpuvar::stats
