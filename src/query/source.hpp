// The accessor seam between analyses and their data.
//
// Every core analysis (variability and its group breakdowns, flagging,
// drift, compare, user_impact, correlate, projection, the text and
// markdown reports) reads columns through a Source. A Source is one
// lazily resolved RecordFrame: a borrowed frame or one it assembles.
// An unfiltered frame-backed Source is a zero-cost borrow, and an
// unfiltered dataset-backed one borrows the Dataset's whole_frame(),
// which the Dataset assembles once for every such Source. A filtered
// Source assembles its own frame on first column access: predicate
// pushdown picks the shards, match_rows picks the rows, and
// RecordFrame::append folds each picked shard's matching rows in
// bucket-index order, as Dataset::materialize merges them. A Source
// does not prune columns: re-decoding a shard for each new column cost
// more than the columns pruning skipped.
//
// Determinism: the assembled frame is a pure function of (manifest
// order, predicate) — shard decodes are parallel but the appends are
// ordered and interning is first-appearance, exactly RecordFrame's
// contract. Analyses over a Source are therefore byte-identical to the
// same analyses over the materialized frame (frame.select of the
// matching rows), at any thread count. The property tests in
// test_query.cpp pin this.
//
// Threading: a Source is confined to one thread (lazy assembly mutates
// under const). The parallelism lives inside the scans it issues and
// inside the analyses that read it: both run on pool(), the Dataset's
// scan pool for a dataset-backed Source and ThreadPool::global() for a
// frame-backed one. An analysis resolves every column span on the
// calling thread before it fans out, and each task writes only its own
// slot, so no task touches the Source and no result depends on the
// pool size. Sources on different threads may share one Dataset, and
// so its whole frame.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "query/dataset.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar::query {

/// Row indices of `frame` matching `where`, ascending. The one row
/// filter: a location verdict per pool entry (the only part that
/// inspects strings), then one pass over the rows that looks up each
/// row's verdict through the id column and tests its day.
std::vector<std::uint32_t> match_rows(const RecordFrame& frame,
                                      const Predicate& where);

class Source {
 public:
  /// Borrows a materialized frame, restricted to rows matching `where`
  /// (implicit: analysis call sites keep accepting a RecordFrame
  /// transparently). The frame must outlive the Source.
  Source(const RecordFrame& frame,  // NOLINT(runtime/explicit)
         Predicate where = {});

  /// Streams from a checkpoint Dataset, restricted to rows matching
  /// `where`. The Dataset must outlive the Source.
  explicit Source(const Dataset& dataset, Predicate where = {});

  /// Rows after the predicate. Plans (pushdown, row match) but does not
  /// assemble.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// The resolved frame: the borrowed one, or the one assembled on the
  /// first call.
  const RecordFrame& frame() const;

  std::size_t gpu_count() const { return frame().gpu_count(); }
  std::span<const double> metric(Metric m) const { return frame().metric(m); }
  std::span<const std::uint32_t> gpu_ids() const { return frame().gpu_ids(); }
  std::span<const GpuRef> gpus() const { return frame().gpus(); }
  const GpuRef& gpu(std::uint32_t id) const { return frame().gpu(id); }
  std::span<const std::int32_t> run_indices() const {
    return frame().run_indices();
  }
  std::span<const std::int16_t> days_of_week() const {
    return frame().days_of_week();
  }

  /// The pool for work over this Source: the Dataset's scan_pool(), or
  /// ThreadPool::global() for a frame-backed Source (the
  /// DatasetOptions::pool rule).
  ThreadPool& pool() const;

 private:
  void ensure_plan() const;
  /// Fetch of every picked shard through the Dataset's cache.
  std::vector<std::shared_ptr<const RecordFrame>> scan() const;

  const RecordFrame* borrowed_ = nullptr;
  const Dataset* dataset_ = nullptr;
  Predicate where_;

  // Lazy plan and assembly (single-thread confined, see header comment).
  mutable bool planned_ = false;
  mutable std::size_t rows_ = 0;
  /// Dataset shards that survived pushdown, in manifest order.
  mutable std::vector<std::size_t> picked_;
  /// Per part (the borrowed frame, or each picked shard): matching row
  /// indices. Only populated when the predicate filters rows.
  mutable std::vector<std::vector<std::uint32_t>> matched_;
  /// The resolved frame unless borrowed_ is used whole: the Dataset's
  /// whole_frame() or this Source's filtered assembly.
  mutable std::shared_ptr<const RecordFrame> resolved_;
};

}  // namespace gpuvar::query
