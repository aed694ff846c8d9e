#include "stats/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/hot.hpp"
#include "common/require.hpp"

namespace gpuvar::stats::kernels {

const char* backend_name(Backend) { return "scalar"; }

Backend active_backend() { return Backend::kScalar; }

// --- fused reductions ---------------------------------------------------
// Every reduction accumulates element i into lane i % 4 and combines the
// four lanes as (l0 op l1) op (l2 op l3). The full 4-blocks are four
// independent accumulator chains the compiler may keep in one vector
// register or four scalar ones; either way each lane sees the same
// additions in the same order, and this TU builds with
// -ffp-contract=off so no mul+add is ever fused. That fixed arithmetic
// is the determinism contract: the bits depend on the input alone.

namespace {

// minpd/maxpd lane semantics: the accumulator survives unless x
// compares strictly below (above) it, so a NaN's fate depends on its
// position, deterministically.
inline double lane_min(double acc, double x) { return acc < x ? acc : x; }
inline double lane_max(double acc, double x) { return acc > x ? acc : x; }

constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Calls step(lane, i) for i in [0, n) with lane = i % 4: full blocks
/// unrolled, then the ragged tail into the same lanes.
template <class Step>
inline void for_each_lane(std::size_t n, Step&& step) {
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) {
    step(0, i);
    step(1, i + 1);
    step(2, i + 2);
    step(3, i + 3);
  }
  for (std::size_t i = full; i < n; ++i) step(i - full, i);
}

inline double combine_sum(const double (&l)[4]) {
  return (l[0] + l[1]) + (l[2] + l[3]);
}
inline double combine_min(const double (&l)[4]) {
  return lane_min(lane_min(l[0], l[1]), lane_min(l[2], l[3]));
}
inline double combine_max(const double (&l)[4]) {
  return lane_max(lane_max(l[0], l[1]), lane_max(l[2], l[3]));
}

}  // namespace

GPUVAR_HOT Sweep describe_sweep(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  const double* p = xs.data();
  double lsum[4] = {0.0, 0.0, 0.0, 0.0};
  double lsq[4] = {0.0, 0.0, 0.0, 0.0};
  double lmin[4] = {kPosInf, kPosInf, kPosInf, kPosInf};
  double lmax[4] = {-kPosInf, -kPosInf, -kPosInf, -kPosInf};
  for_each_lane(xs.size(), [&](std::size_t l, std::size_t i) {
    const double x = p[i];
    lsum[l] += x;
    lsq[l] += x * x;
    lmin[l] = lane_min(lmin[l], x);
    lmax[l] = lane_max(lmax[l], x);
  });
  Sweep s;
  s.sum = combine_sum(lsum);
  s.sumsq = combine_sum(lsq);
  s.min = combine_min(lmin);
  s.max = combine_max(lmax);
  return s;
}

GPUVAR_HOT double sum(std::span<const double> xs) {
  const double* p = xs.data();
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for_each_lane(xs.size(),
                [&](std::size_t l, std::size_t i) { lanes[l] += p[i]; });
  return combine_sum(lanes);
}

GPUVAR_HOT double centered_sumsq(std::span<const double> xs, double mean) {
  const double* p = xs.data();
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for_each_lane(xs.size(), [&](std::size_t l, std::size_t i) {
    const double d = p[i] - mean;
    lanes[l] += d * d;
  });
  return combine_sum(lanes);
}

GPUVAR_HOT CenteredProducts centered_products(std::span<const double> xs,
                                              std::span<const double> ys,
                                              double mx, double my) {
  GPUVAR_REQUIRE(xs.size() == ys.size());
  const double* px = xs.data();
  const double* py = ys.data();
  double lxy[4] = {0.0, 0.0, 0.0, 0.0};
  double lxx[4] = {0.0, 0.0, 0.0, 0.0};
  double lyy[4] = {0.0, 0.0, 0.0, 0.0};
  for_each_lane(xs.size(), [&](std::size_t l, std::size_t i) {
    const double dx = px[i] - mx;
    const double dy = py[i] - my;
    lxy[l] += dx * dy;
    lxx[l] += dx * dx;
    lyy[l] += dy * dy;
  });
  CenteredProducts cp;
  cp.sxy = combine_sum(lxy);
  cp.sxx = combine_sum(lxx);
  cp.syy = combine_sum(lyy);
  return cp;
}

GPUVAR_HOT MinMax min_max(std::span<const double> xs) {
  GPUVAR_REQUIRE(!xs.empty());
  const double* p = xs.data();
  double lmin[4] = {kPosInf, kPosInf, kPosInf, kPosInf};
  double lmax[4] = {-kPosInf, -kPosInf, -kPosInf, -kPosInf};
  for_each_lane(xs.size(), [&](std::size_t l, std::size_t i) {
    lmin[l] = lane_min(lmin[l], p[i]);
    lmax[l] = lane_max(lmax[l], p[i]);
  });
  MinMax mm;
  mm.min = combine_min(lmin);
  mm.max = combine_max(lmax);
  return mm;
}

// --- selection ----------------------------------------------------------
// Exact code: a selected order statistic is a value fact about the
// multiset. Deterministic pivots (median-of-3, ninther above 128
// elements), three-way partitioning so constant columns finish in one
// pass, and bounds-checked scans so a NaN cannot walk a cursor off the
// span — NaNs land in the pivot's "unordered" band, which keeps the
// result deterministic even though NaN ordering is unspecified.

namespace {

constexpr std::size_t kInsertionThreshold = 16;

void insertion_sort(double* a, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const double x = a[i];
    std::size_t j = i;
    while (j > lo && x < a[j - 1]) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = x;
  }
}

std::size_t med3(const double* a, std::size_t i, std::size_t j,
                 std::size_t k) {
  if (a[i] < a[j]) {
    if (a[j] < a[k]) return j;
    return a[i] < a[k] ? k : i;
  }
  if (a[i] < a[k]) return i;
  return a[j] < a[k] ? k : j;
}

}  // namespace

GPUVAR_HOT void nth_inplace(std::span<double> xs, std::size_t k) {
  GPUVAR_REQUIRE(k < xs.size());
  double* a = xs.data();
  std::size_t lo = 0;
  std::size_t hi = xs.size();
  while (hi - lo > kInsertionThreshold) {
    const std::size_t n = hi - lo;
    const std::size_t mid = lo + n / 2;
    std::size_t pidx;
    if (n > 128) {
      const std::size_t eighth = n / 8;
      const std::size_t p1 = med3(a, lo, lo + eighth, lo + 2 * eighth);
      const std::size_t p2 = med3(a, mid - eighth, mid, mid + eighth);
      const std::size_t p3 =
          med3(a, hi - 1 - 2 * eighth, hi - 1 - eighth, hi - 1);
      pidx = med3(a, p1, p2, p3);
    } else {
      pidx = med3(a, lo, mid, hi - 1);
    }
    const double p = a[pidx];
    // Three-way partition of [lo, hi): [lo, lt) < p, [lt, gt) neither
    // < nor > p (equal values, plus NaNs), [gt, hi) > p. The pivot
    // element itself always lands in the middle band, so both
    // recursion candidates are strictly smaller and the loop
    // terminates even when p is NaN (then the whole range is "equal"
    // and we return immediately).
    std::size_t lt = lo;
    std::size_t gt = hi;
    std::size_t i = lo;
    while (i < gt) {
      if (a[i] < p) {
        std::swap(a[i], a[lt]);
        ++lt;
        ++i;
      } else if (p < a[i]) {
        --gt;
        std::swap(a[i], a[gt]);
      } else {
        ++i;
      }
    }
    if (k < lt) {
      hi = lt;
    } else if (k >= gt) {
      lo = gt;
    } else {
      return;  // a[k] sits in the pivot band
    }
  }
  insertion_sort(a, lo, hi);
}

GPUVAR_HOT double quantile_inplace(std::span<double> xs, double q) {
  GPUVAR_REQUIRE(!xs.empty());
  GPUVAR_REQUIRE(q >= 0.0 && q <= 1.0);
  const std::size_t n = xs.size();
  if (n == 1) return xs[0];
  const double h = static_cast<double>(n - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - std::floor(h);
  nth_inplace(xs, lo);
  const double vlo = xs[lo];
  // The upper interpolation point is the minimum of the right
  // partition — the (lo+1)-th order statistic, without finishing the
  // sort. When lo is the last index the sorted path collapses hi onto
  // lo; mirror that.
  double vhi = vlo;
  if (lo + 1 < n) {
    vhi = xs[lo + 1];
    for (std::size_t i = lo + 2; i < n; ++i) {
      if (xs[i] < vhi) vhi = xs[i];
    }
  }
  // Exactly quantile_sorted's expression, frac == 0 included, so the
  // two paths agree bit-for-bit (e.g. -0.0 + 0.0*0.0 is +0.0 in both).
  return vlo + frac * (vhi - vlo);
}

GPUVAR_HOT double median_inplace(std::span<double> xs) {
  return quantile_inplace(xs, 0.5);
}

// --- predicate masks ----------------------------------------------------

GPUVAR_HOT void mask_range_i16(std::span<const std::int16_t> xs,
                               std::int64_t lo, std::int64_t hi,
                               std::span<std::uint8_t> out) {
  GPUVAR_REQUIRE(out.size() == xs.size());
  constexpr std::int64_t kI16Min = std::numeric_limits<std::int16_t>::min();
  constexpr std::int64_t kI16Max = std::numeric_limits<std::int16_t>::max();
  if (lo > hi || lo > kI16Max || hi < kI16Min) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  const auto clo = static_cast<std::int16_t>(std::max(lo, kI16Min));
  const auto chi = static_cast<std::int16_t>(std::min(hi, kI16Max));
  const std::int16_t* p = xs.data();
  std::uint8_t* o = out.data();
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) {
    o[i] = static_cast<std::uint8_t>(p[i] >= clo && p[i] <= chi);
  }
}

GPUVAR_HOT void mask_gather_u32(std::span<const std::uint32_t> ids,
                                std::span<const std::uint8_t> table,
                                std::span<std::uint8_t> out) {
  GPUVAR_REQUIRE(out.size() == ids.size());
  const std::uint32_t* p = ids.data();
  const std::uint8_t* t = table.data();
  std::uint8_t* o = out.data();
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) o[i] = t[p[i]];
}

GPUVAR_HOT void mask_and(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b,
                         std::span<std::uint8_t> out) {
  GPUVAR_REQUIRE(a.size() == b.size());
  GPUVAR_REQUIRE(out.size() == a.size());
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  std::uint8_t* o = out.data();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    o[i] = static_cast<std::uint8_t>(pa[i] & pb[i]);
  }
}

GPUVAR_HOT std::size_t mask_count(std::span<const std::uint8_t> mask) {
  const std::uint8_t* p = mask.data();
  const std::size_t n = mask.size();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += p[i];
  return count;
}

// The index emitters size the output once (one pad slot keeps the
// branch-free write in bounds on the final iteration) and fill with an
// unconditional store — no per-row branch, no per-row growth.

GPUVAR_HOT void mask_to_indices(std::span<const std::uint8_t> mask,
                                std::vector<std::uint32_t>& out) {
  const std::size_t count = mask_count(mask);
  out.resize(count + 1);
  const std::uint8_t* p = mask.data();
  const std::size_t n = mask.size();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[w] = static_cast<std::uint32_t>(i);
    w += p[i];
  }
  out.resize(count);
}

GPUVAR_HOT void mask_to_rows(std::span<const std::uint8_t> mask,
                             std::vector<std::size_t>& out) {
  const std::size_t count = mask_count(mask);
  out.resize(count + 1);
  const std::uint8_t* p = mask.data();
  const std::size_t n = mask.size();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[w] = i;
    w += p[i];
  }
  out.resize(count);
}

}  // namespace gpuvar::stats::kernels
