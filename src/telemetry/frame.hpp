// Columnar record plane: the canonical interchange from runner to reports.
//
// Every analysis in this suite — IQR/box spreads, Pearson correlations,
// per-GPU repeatability, day-of-week splits — is column math over four
// metrics, yet a row-oriented std::vector<RunRecord> re-extracts those
// columns (and drags a per-row GpuLocation string) on every pass. A
// RecordFrame stores the same data structure-of-arrays: one contiguous
// array per metric and counter, small integer columns for run/day, and a
// per-row id into an interned GPU pool that holds each GpuLocation
// exactly once. Column reads are zero-copy std::span views; per-GPU
// grouping is a dense counting sort over the id column instead of a
// node-per-row std::map.
//
// Determinism contract (shared with FrameBuilder below): a frame's row
// order and pool-id assignment are pure functions of the row stream that
// built it. append_row interns in first-appearance order; append()
// concatenates chunk rows in order and remaps chunk ids through the same
// first-appearance interning. FrameBuilder::finish() merges its buckets
// in bucket-index order, so parallel producers that each own one bucket
// yield a byte-identical frame whatever the pool size or schedule —
// exactly the guarantee determinism_replay pins for run_campaign.
//
// Migration note: the deprecation cycle is over. The bulk row adapters
// and every row-span analysis overload are gone; analysis entry points
// take `const RecordFrame&` only (the analyzer's row-record-param rule
// now bans row-record signatures outright in core/telemetry public
// headers). Single-row append_row / row(i) remain: they are the
// streaming construction API and the materialization escape hatch, not
// a bulk interchange.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/location.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

/// Interned identity of one GPU: its stable index and physical location,
/// stored once per GPU in the frame's pool rather than once per row.
struct GpuRef {
  std::size_t gpu_index = 0;
  GpuLocation loc;  ///< first-seen location for this gpu_index
};

class RecordFrame {
 public:
  RecordFrame() = default;

  std::size_t size() const { return perf_.size(); }
  bool empty() const { return perf_.empty(); }
  /// Distinct GPUs (distinct gpu_index values) across all rows.
  std::size_t gpu_count() const { return gpus_.size(); }

  // --- zero-copy column views -------------------------------------------
  std::span<const double> perf_ms() const { return perf_; }
  std::span<const double> freq_mhz() const { return freq_; }
  std::span<const double> power_w() const { return power_; }
  std::span<const double> temp_c() const { return temp_; }
  std::span<const double> fu_util() const { return fu_; }
  std::span<const double> dram_util() const { return dram_; }
  std::span<const double> mem_stall_frac() const { return mem_stall_; }
  std::span<const double> exec_stall_frac() const { return exec_stall_; }
  /// The column for one of the four analysis metrics, without copying.
  std::span<const double> metric(Metric m) const;

  /// Per-row pool id (index into gpus()).
  std::span<const std::uint32_t> gpu_ids() const { return gpu_id_; }
  std::span<const std::int32_t> run_indices() const { return run_; }
  std::span<const std::int16_t> days_of_week() const { return day_; }

  /// The interned GPU pool, in first-appearance order of the row stream.
  std::span<const GpuRef> gpus() const { return gpus_; }
  const GpuRef& gpu(std::uint32_t id) const { return gpus_[id]; }

  // --- per-row accessors ------------------------------------------------
  std::size_t gpu_index(std::size_t row) const {
    return gpus_[gpu_id_[row]].gpu_index;
  }
  const GpuLocation& loc(std::size_t row) const {
    return gpus_[gpu_id_[row]].loc;
  }
  int run_index(std::size_t row) const { return run_[row]; }
  int day_of_week(std::size_t row) const { return day_[row]; }
  ProfilerCounters counters(std::size_t row) const;

  /// Materializes one row (escape hatch for row-shaped consumers, e.g.
  /// building a mutated copy of a campaign in a test or benchmark).
  RunRecord row(std::size_t row) const;

  // --- construction -----------------------------------------------------
  void reserve(std::size_t rows);
  /// Appends one row, interning its location on first sight of its
  /// gpu_index. Id assignment follows first-appearance order.
  void append_row(const RunRecord& r);
  /// Chunked append: concatenates another frame's rows in order, remapping
  /// its pool ids through this frame's interning. Memory-bounded campaign
  /// loops build one chunk at a time and fold it in here.
  void append(const RecordFrame& chunk);
  /// New frame holding exactly the given rows (in the given order).
  RecordFrame select(std::span<const std::size_t> rows) const;
  /// Mask overload: keeps the rows whose mask byte is set (1 = keep),
  /// in frame order. The mask convention matches the vectorized
  /// predicate kernels in stats/kernels.hpp, so a filter can go from
  /// predicate to sub-frame without materializing a row-index list at
  /// the call site. Requires mask.size() == size().
  RecordFrame select(std::span<const std::uint8_t> mask) const;

  /// Approximate heap + inline footprint in bytes (for the memory story
  /// in micro_frame_bench; counts columns plus the interned pool).
  std::size_t memory_bytes() const;

 private:
  std::uint32_t intern(std::size_t gpu_index, const GpuLocation& loc);

  std::vector<double> perf_, freq_, power_, temp_;
  std::vector<double> fu_, dram_, mem_stall_, exec_stall_;
  std::vector<std::uint32_t> gpu_id_;
  std::vector<std::int32_t> run_;
  std::vector<std::int16_t> day_;
  std::vector<GpuRef> gpus_;
  /// gpu_index -> pool id. Ordered map: lookup-only (never iterated into
  /// results), but keeping it ordered costs nothing and stays lint-clean.
  std::map<std::size_t, std::uint32_t> id_by_gpu_index_;
};

/// Deterministic sink for parallel producers: one bucket per independent
/// job (node, GPU, shard), each owned by exactly one worker; finish()
/// concatenates the buckets in index order. Because ids re-intern during
/// the ordered merge, the finished frame is identical whatever schedule
/// filled the buckets — the columnar replacement for the
/// vector-of-vectors bucket-concatenate-then-copy pattern.
class FrameBuilder {
 public:
  explicit FrameBuilder(std::size_t bucket_count);

  std::size_t bucket_count() const { return buckets_.size(); }
  /// The bucket a single producer streams into. Distinct indices may be
  /// filled concurrently; one bucket must never be shared.
  RecordFrame& bucket(std::size_t i) { return buckets_[i]; }

  /// Merges all buckets (in index order) into the finished frame and
  /// releases their storage.
  RecordFrame finish();

 private:
  std::vector<RecordFrame> buckets_;
};

/// Row indices grouped by interned GPU: rows laid out id-by-id (frame
/// order within each group), plus the id iteration order that visits
/// GPUs by ascending gpu_index — the order the row-oriented
/// per_gpu_medians always produced.
struct GpuRowGroups {
  std::vector<std::uint32_t> order;  ///< pool ids sorted by gpu_index
  std::vector<std::size_t> offsets;  ///< per id: group = rows[offsets[id]..offsets[id+1])
  std::vector<std::size_t> rows;     ///< row indices, grouped by id
};

GpuRowGroups group_rows_by_gpu(const RecordFrame& frame);

/// Shared core of group_rows_by_gpu over raw columns: groups any id
/// column against any interned pool. The streaming query plane feeds
/// its assembled columns through this same code, which is what makes
/// "Dataset analysis == frame analysis" a structural fact rather than
/// a numerical coincidence.
GpuRowGroups group_rows_by_ids(std::span<const std::uint32_t> ids,
                               std::span<const GpuRef> gpus);

/// Collapses the frame to one aggregate per GPU (ordered by gpu_index),
/// bit-identical to per_gpu_medians over the equivalent record rows but
/// via a dense counting sort instead of a per-row map.
std::vector<GpuAggregate> per_gpu_medians(const RecordFrame& frame);

/// Shared core of per_gpu_medians over raw columns + precomputed
/// groups. Requires a non-empty row set.
std::vector<GpuAggregate> per_gpu_medians_grouped(
    const GpuRowGroups& groups, std::span<const GpuRef> gpus,
    std::span<const double> perf_ms, std::span<const double> freq_mhz,
    std::span<const double> power_w, std::span<const double> temp_c);

/// Zero-copy counterpart of the allocating metric_column overload.
std::span<const double> metric_column(const RecordFrame& frame, Metric m);

}  // namespace gpuvar
