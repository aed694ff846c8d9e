// Columnar compute kernels: one portable implementation.
//
// Every analysis in this suite bottoms out in a handful of column
// primitives: fused min/max/sum/sumsq sweeps (describe), centered
// product sums (pearson), order-statistic selection (quantile/median),
// and row-predicate masks (query scans, frame selection). This module
// implements each one once, in plain C++ the compiler is free to
// vectorize.
//
// Determinism is a hard contract, not an aspiration: a reduction over
// n elements accumulates element i into lane i%4 (full 4-blocks first,
// the ragged tail folded into the same lanes), combines lanes as
// (l0+l1)+(l2+l3), and never fuses a mul+add (kernels.cpp builds with
// -ffp-contract=off). The result bits therefore depend on the input
// alone — not on the host ISA, the thread count or the compiler's
// register width. tests/test_stats_kernels.cpp pins every reduction
// bit for bit against a reference that spells out the lane formula,
// and the determinism_replay tests pin whole campaigns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gpuvar::stats::kernels {

/// The kernel implementation in use. There is one, so these exist only
/// to report it in the end-to-end benchmark's host facts.
enum class Backend { kScalar = 0 };

/// "scalar".
const char* backend_name(Backend b);

/// Backend::kScalar.
Backend active_backend();

// --- fused reductions ---------------------------------------------------

/// min/max/sum/sumsq of a column in one sweep. min/max follow minpd
/// semantics (`(acc < x) ? acc : x` per lane against +/-inf identities),
/// so a NaN's survival depends on its position — deterministically.
/// Requires a non-empty span.
struct Sweep {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sumsq = 0.0;
};
Sweep describe_sweep(std::span<const double> xs);

/// Blocked 4-lane sum; 0.0 for an empty span.
double sum(std::span<const double> xs);

/// Sum of (x - mean)^2 — the numerically stable second pass behind
/// sample variance.
double centered_sumsq(std::span<const double> xs, double mean);

/// Fused centered second moments for Pearson: sum dx*dy, dx*dx, dy*dy
/// in one sweep. Requires equal-length spans.
struct CenteredProducts {
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
};
CenteredProducts centered_products(std::span<const double> xs,
                                   std::span<const double> ys, double mx,
                                   double my);

/// min and max in one sweep (minpd semantics, as describe_sweep).
/// Requires a non-empty span.
struct MinMax {
  double min = 0.0;
  double max = 0.0;
};
MinMax min_max(std::span<const double> xs);

// --- selection ----------------------------------------------------------
// Order statistics without the copy-sort: iterative quickselect with
// deterministic median-of-3/ninther pivots (no RNG). The k-th smallest
// value of a multiset is a pure value fact, so select-based quantiles
// are bit-identical to the sorted-copy path they replace.

/// Partitions xs so xs[k] holds the k-th smallest element, everything
/// left of k is <= it and everything right is >= it. Requires k < size.
void nth_inplace(std::span<double> xs, std::size_t k);

/// R type-7 quantile of an unsorted scratch span, permuting it in
/// place. Bit-identical to quantile_sorted(sorted_copy(xs), q) in
/// O(n). Requires a non-empty span and q in [0, 1].
double quantile_inplace(std::span<double> xs, double q);

/// quantile_inplace at q = 0.5.
double median_inplace(std::span<double> xs);

// --- predicate masks ----------------------------------------------------
// Byte masks (1 = row matches) for the query scan's row filter and
// RecordFrame selection. Exact integer operations, written branch-free
// so the compiler can vectorize them.

/// out[i] = lo <= xs[i] <= hi (bounds in FieldRange's int64 domain;
/// clamped to int16 internally). out must match xs in length.
void mask_range_i16(std::span<const std::int16_t> xs, std::int64_t lo,
                    std::int64_t hi, std::span<std::uint8_t> out);

/// out[i] = table[ids[i]] — per-row lookup of a per-pool-entry verdict.
/// Every id must index into table; out must match ids in length.
void mask_gather_u32(std::span<const std::uint32_t> ids,
                     std::span<const std::uint8_t> table,
                     std::span<std::uint8_t> out);

/// out[i] = a[i] & b[i]; out may alias a or b.
void mask_and(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
              std::span<std::uint8_t> out);

/// Number of set bytes in the mask.
std::size_t mask_count(std::span<const std::uint8_t> mask);

/// Replaces out with the positions of set mask bytes, ascending.
void mask_to_indices(std::span<const std::uint8_t> mask,
                     std::vector<std::uint32_t>& out);

/// mask_to_indices for std::size_t row lists (RecordFrame::select).
void mask_to_rows(std::span<const std::uint8_t> mask,
                  std::vector<std::size_t>& out);

}  // namespace gpuvar::stats::kernels
