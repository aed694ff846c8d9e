// The accessor seam between analyses and their data.
//
// Every core analysis (variability and its group breakdowns, flagging,
// drift, compare, user_impact, correlate, projection, the text and
// markdown reports) reads columns through a Source instead of a
// concrete RecordFrame. A frame-backed Source is a zero-cost borrow:
// every accessor returns the frame's own spans. A dataset-backed
// Source evaluates the query lazily: predicate pushdown picks the
// shards, and the first column an analysis touches assembles every
// column at once: the picked shards, decoded whole through the
// Dataset's cache, merged in bucket-index order as Dataset::materialize
// merges them. A Source does not prune columns: re-decoding a shard for
// each new column cost more than the columns pruning skipped.
//
// Determinism: assembled columns and pool-id assignment are pure
// functions of (manifest order, predicate) — shard decodes are
// parallel but the merge is ordered and interning is first-appearance,
// exactly RecordFrame's contract. Analyses over a Source are therefore
// byte-identical to the same analyses over the materialized frame
// (frame.select of the matching rows), at any thread count and cache
// budget. The property tests in test_query.cpp pin this.
//
// Threading: a Source is confined to one thread (lazy assembly mutates
// under const); the parallelism lives inside the scans it issues.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "query/dataset.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar::query {

class Source {
 public:
  /// Borrows a materialized frame (implicit: analysis call sites keep
  /// accepting a RecordFrame transparently). The frame must outlive
  /// the Source.
  Source(const RecordFrame& frame);  // NOLINT(runtime/explicit)

  /// Streams from a checkpoint Dataset, restricted to rows matching
  /// `where`. The Dataset must outlive the Source.
  explicit Source(const Dataset& dataset, Predicate where = {});

  /// Rows (after the predicate, for a dataset-backed source).
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::size_t gpu_count() const;

  /// The column for one analysis metric. A dataset-backed source
  /// assembles all its columns the first time any is read; a
  /// frame-backed one returns the frame's own.
  std::span<const double> metric(Metric m) const;
  std::span<const std::uint32_t> gpu_ids() const;
  std::span<const GpuRef> gpus() const;
  const GpuRef& gpu(std::uint32_t id) const { return gpus()[id]; }
  std::span<const std::int32_t> run_indices() const;
  std::span<const std::int16_t> days_of_week() const;

 private:
  void ensure_plan() const;
  /// Assembles every column in one pass over the picked shards.
  void ensure_columns() const;
  /// Parallel fetch of every picked shard, all columns decoded.
  std::vector<std::shared_ptr<const DecodedShardColumns>> scan() const;

  const RecordFrame* frame_ = nullptr;
  const Dataset* dataset_ = nullptr;
  Predicate where_;

  // Lazy dataset-backed assembly (single-thread confined, see header
  // comment).
  mutable bool planned_ = false;
  mutable bool filtered_ = false;
  mutable std::size_t rows_ = 0;
  mutable std::vector<std::size_t> picked_;
  /// Per picked shard: matching row indices. Parallel to picked_; only
  /// populated when the predicate filters rows.
  mutable std::vector<std::vector<std::uint32_t>> match_rows_;
  mutable bool assembled_ = false;
  mutable std::vector<std::uint32_t> ids_;
  mutable std::vector<GpuRef> pool_;
  mutable std::vector<std::int32_t> runs_;
  mutable std::vector<std::int16_t> days_;
  mutable std::array<std::vector<double>, 4> metric_cols_;
};

/// group_rows_by_gpu / per_gpu_medians over the seam: same shared
/// column cores as the RecordFrame overloads (telemetry/frame.hpp), so
/// grouping a Source is bit-identical to grouping the equivalent frame.
GpuRowGroups group_rows_by_gpu(const Source& source);
std::vector<GpuAggregate> per_gpu_medians(const Source& source);

}  // namespace gpuvar::query
