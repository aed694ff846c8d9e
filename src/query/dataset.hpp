// Streaming query plane over checkpointed campaign stores.
//
// A checkpoint directory (telemetry/manifest.hpp + one FrameShard per
// bucket) is the durable form of a campaign. Every analysis used to
// require materializing the whole thing back into one RecordFrame; a
// Dataset instead treats the directory as an immutable, queryable
// store and evaluates analyses by streaming shards:
//
//  - predicate pushdown: the v2 shard header carries per-shard
//    node/gpu-index/day ranges, so a query whose Predicate cannot
//    overlap a shard skips it on header facts alone — the payload is
//    never read, let alone decoded;
//  - one decode per shard: a scanned shard is decoded whole, once,
//    straight into a RecordFrame (parse_frame_shard), and every column
//    an analysis reads comes from that frame;
//  - parallel scans: surviving shards decode on a gpuvar::ThreadPool
//    and merge in bucket-index order, so results are byte-identical at
//    any thread count — the same determinism discipline as the
//    campaign engine's write path;
//  - decoded once per Dataset: a shard is decoded at most once and
//    kept for the Dataset's lifetime, shared by every query against it.
//    Hits, misses and the resident-bytes high-water mark surface as
//    query.* metrics;
//  - assembled once per Dataset: the unfiltered whole-store frame is
//    built on first use and shared by every unfiltered Source over it.
//
// Trust model: Dataset::open verifies each listed shard's header
// against the manifest, and every payload that is actually decoded is
// hash-checked (a reader never trusts the file). Unlike the campaign
// engine, the query plane cannot re-run a bad bucket — any defect is
// std::runtime_error naming the shard. The headers are read and
// verified in parallel on the scan pool.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar {
class ThreadPool;
}

namespace gpuvar::query {

/// Inclusive [lo, hi] bound on one integer field; the default bounds
/// match everything, so an unset range costs nothing to test.
struct FieldRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();

  bool is_all() const {
    return lo == std::numeric_limits<std::int64_t>::min() &&
           hi == std::numeric_limits<std::int64_t>::max();
  }
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }
  /// Whether [min, max] (a shard's header stats) can hold a match. An
  /// empty stats range (min > max, i.e. zero rows) never matches.
  bool overlaps(std::int64_t min, std::int64_t max) const {
    return min <= max && lo <= max && min <= hi;
  }
};

/// Row filter over interned pool fields and the day-of-week column.
/// node / gpu_index / day have per-shard header stats and participate
/// in pushdown; cabinet / row / column filter rows after decode only.
struct Predicate {
  FieldRange node;
  FieldRange gpu_index;
  FieldRange day;
  FieldRange cabinet;
  FieldRange row;
  FieldRange column;

  bool is_all() const {
    return node.is_all() && gpu_index.is_all() && day.is_all() &&
           cabinet.is_all() && row.is_all() && column.is_all();
  }
  /// The pool-backed half of the row test — constant per interned GPU,
  /// so a scan evaluates it once per pool entry, not once per row.
  bool matches_gpu(const GpuRef& g) const {
    return node.contains(g.loc.node) &&
           gpu_index.contains(static_cast<std::int64_t>(g.gpu_index)) &&
           cabinet.contains(g.loc.cabinet) && row.contains(g.loc.row) &&
           column.contains(g.loc.column);
  }
  /// Row-level test: the row's interned GPU plus its day value.
  bool matches(const GpuRef& g, std::int16_t day_of_week) const {
    return matches_gpu(g) && day.contains(day_of_week);
  }
  /// Shard-level test against header stats: false only when no row in
  /// the shard can possibly match (the pushdown rule). Fields without
  /// header stats never veto a shard.
  bool may_match(const FrameShardStats& s) const {
    return node.overlaps(s.node_min, s.node_max) &&
           gpu_index.overlaps(s.gpu_index_min, s.gpu_index_max) &&
           day.overlaps(s.day_min, s.day_max);
  }
};

struct DatasetOptions {
  /// Pool for parallel shard scans; nullptr means ThreadPool::global().
  ThreadPool* pool = nullptr;
};

/// One manifest-listed shard: where it lives and what its header
/// promises. Stats come from the header, already cross-checked against
/// the manifest by Dataset::open.
struct DatasetShard {
  std::string path;
  FrameShardHeader header;
};

class Dataset {
 public:
  /// Opens a checkpoint directory: reads the manifest, then reads and
  /// verifies each listed shard's fixed-size header (magic, version,
  /// and shard_matches_entry against its manifest entry), in parallel
  /// on scan_pool() through read_frame_shard_header. Throws
  /// std::runtime_error on a missing/foreign manifest or any header
  /// defect (a missing, unreadable or truncated shard included), naming
  /// the bad shard. An incomplete campaign (no "done" line in the
  /// manifest) opens fine — complete() reports it.
  static Dataset open(const std::string& dir,
                      const DatasetOptions& options = {});

  const std::string& dir() const { return dir_; }
  std::uint64_t config_hash() const { return config_hash_; }
  bool complete() const { return complete_; }
  const std::vector<DatasetShard>& shards() const { return shards_; }
  /// Total rows across all shards (before any predicate).
  std::uint64_t total_rows() const { return total_rows_; }
  ThreadPool& scan_pool() const;

  /// Fetches shard `i`, decoding it on first use and keeping it for
  /// the Dataset's lifetime. The returned frame is immutable.
  std::shared_ptr<const RecordFrame> fetch(std::size_t i) const;

  /// Appends every shard's frame in bucket-index order into one
  /// RecordFrame — byte-identical to the frame the campaign engine
  /// merged when it wrote the checkpoint. A fresh copy on every call:
  /// the escape hatch for consumers that genuinely need to own the
  /// whole frame (and the reference half of the "query == materialize"
  /// property tests).
  RecordFrame materialize() const;

  /// The materialize() frame, assembled on first use and kept for the
  /// Dataset's lifetime; every unfiltered Source over this Dataset
  /// borrows it. If two threads assemble it at once, the first insert
  /// wins and both share that copy. Its bytes count towards
  /// query.cache_bytes_peak.
  std::shared_ptr<const RecordFrame> whole_frame() const;

  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

 private:
  Dataset() = default;

  /// Decoded shards, keyed by shard index, and the whole-store frame;
  /// an entry, once set, is never replaced or dropped.
  struct Cache {
    Mutex mu;
    std::vector<std::shared_ptr<const RecordFrame>> entries
        GPUVAR_GUARDED_BY(mu);
    std::shared_ptr<const RecordFrame> whole GPUVAR_GUARDED_BY(mu);
    std::uint64_t resident_bytes GPUVAR_GUARDED_BY(mu) = 0;
  };

  std::string dir_;
  DatasetOptions options_;
  std::uint64_t config_hash_ = 0;
  bool complete_ = false;
  std::uint64_t total_rows_ = 0;
  std::vector<DatasetShard> shards_;
  /// unique_ptr: the cache holds a Mutex (not movable), the Dataset
  /// must be (factory return).
  mutable std::unique_ptr<Cache> cache_;
};

}  // namespace gpuvar::query
