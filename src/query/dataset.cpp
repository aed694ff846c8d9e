#include "query/dataset.hpp"

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar::query {

namespace {

namespace fs = std::filesystem;

/// "bucket-000042.shard" and room for a bucket index of up to 19 digits.
constexpr std::size_t kShardFileNameBytes = 32;

}  // namespace

Dataset Dataset::open(const std::string& dir, const DatasetOptions& options) {
  GPUVAR_TRACE_SPAN("query", "open");
  Dataset ds;
  ds.dir_ = dir;
  ds.options_ = options;
  ds.cache_ = std::make_unique<Cache>();

  // Every path is the directory prefix, joined as fs::path's operator/
  // joins it, plus a file name: one path object per store, not per
  // shard.
  const std::string prefix = (fs::path(dir) / "").native();
  const CampaignManifest m =
      read_campaign_manifest(prefix + kCampaignManifestName);
  if (!m.exists) {
    throw std::runtime_error(dir +
                             ": no campaign manifest (not a checkpoint "
                             "directory)");
  }
  ds.config_hash_ = m.config_hash;
  ds.complete_ = m.done;

  // Paths are built here, on the calling thread, so the workers below
  // only read: each header lands in a stack buffer and is parsed from
  // there.
  std::vector<const FrameShardInfo*> listed;
  listed.reserve(m.entries.size());
  ds.shards_.resize(m.entries.size());
  for (const auto& [idx, e] : m.entries) {
    std::string& path = ds.shards_[listed.size()].path;
    path.reserve(prefix.size() + kShardFileNameBytes);
    path = prefix;
    append_campaign_shard_file_name(path, static_cast<std::size_t>(idx));
    listed.push_back(&e);
  }
  ds.scan_pool().parallel_for(listed.size(), [&](std::size_t i) {
    DatasetShard& s = ds.shards_[i];
    s.header = read_frame_shard_header(s.path);
    if (!shard_matches_entry(s.header.info, *listed[i])) {
      throw std::runtime_error(
          s.path +
          ": shard header disagrees with the campaign manifest (stale or "
          "foreign shard)");
    }
  });
  for (const DatasetShard& s : ds.shards_) {
    ds.total_rows_ += s.header.info.rows;
  }
  {
    MutexLock lock(ds.cache_->mu);
    ds.cache_->entries.resize(ds.shards_.size());
  }
  GPUVAR_METRIC_COUNT("query.datasets_opened");
  return ds;
}

ThreadPool& Dataset::scan_pool() const {
  return options_.pool != nullptr ? *options_.pool : ThreadPool::global();
}

std::shared_ptr<const RecordFrame> Dataset::fetch(std::size_t i) const {
  {
    MutexLock lock(cache_->mu);
    if (cache_->entries[i] != nullptr) {
      GPUVAR_METRIC_COUNT("query.cache_hits");
      return cache_->entries[i];
    }
  }
  GPUVAR_METRIC_COUNT("query.cache_misses");
  const DatasetShard& shard = shards_[i];
  GPUVAR_TRACE_SPAN(
      "query", "decode_shard", "bucket",
      static_cast<std::int64_t>(shard.header.info.bucket_index));
  // Decode outside the lock: two threads may race to decode the same
  // shard (wasted work, not wrong results — the file is immutable).
  // The first insert wins, so every caller shares one copy.
  // The file is parsed again, so it is held again to the facts open
  // verified: a shard swapped or rewritten since then fails here rather
  // than being merged as another bucket's rows.
  FrameShard parsed = read_frame_shard(shard.path);
  if (!shard_matches_entry(parsed.info, shard.header.info)) {
    throw std::runtime_error(shard.path +
                             ": shard changed since the store was opened "
                             "(it disagrees with the campaign manifest)");
  }
  auto decoded = std::make_shared<const RecordFrame>(std::move(parsed.frame));

  MutexLock lock(cache_->mu);
  std::shared_ptr<const RecordFrame>& entry = cache_->entries[i];
  if (entry != nullptr) return entry;
  entry = std::move(decoded);
  cache_->resident_bytes += static_cast<std::uint64_t>(entry->memory_bytes());
  GPUVAR_METRIC_MAX("query.cache_bytes_peak", cache_->resident_bytes);
  return entry;
}

RecordFrame Dataset::materialize() const {
  GPUVAR_TRACE_SPAN("query", "materialize", "shards",
                    static_cast<std::int64_t>(shards_.size()));
  std::vector<std::shared_ptr<const RecordFrame>> decoded(shards_.size());
  scan_pool().parallel_for(shards_.size(), [&](std::size_t i) {
    decoded[i] = fetch(i);
  });
  // Bucket-index order (shards_ is manifest order, which is bucket
  // order); append re-interns in first-appearance order exactly as the
  // engine's merge stage did when it wrote the checkpoint.
  RecordFrame out;
  out.reserve(static_cast<std::size_t>(total_rows_));
  for (const auto& shard : decoded) out.append(*shard);
  return out;
}

std::shared_ptr<const RecordFrame> Dataset::whole_frame() const {
  {
    MutexLock lock(cache_->mu);
    if (cache_->whole != nullptr) return cache_->whole;
  }
  // Assembled outside the lock, as fetch decodes: a racing thread wastes
  // one assembly, and the first insert wins.
  auto built = std::make_shared<const RecordFrame>(materialize());

  MutexLock lock(cache_->mu);
  if (cache_->whole != nullptr) return cache_->whole;
  cache_->whole = std::move(built);
  cache_->resident_bytes +=
      static_cast<std::uint64_t>(cache_->whole->memory_bytes());
  GPUVAR_METRIC_MAX("query.cache_bytes_peak", cache_->resident_bytes);
  return cache_->whole;
}

}  // namespace gpuvar::query
