#include "query/dataset.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar::query {

namespace {

namespace fs = std::filesystem;

/// Reads at most the fixed-size header prefix — the whole point of the
/// v2 stats block is that planning a query costs header bytes, not
/// payload bytes. A shorter file yields fewer bytes and the header
/// parser reports the truncation.
std::string read_header_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot open " + path.string());
  }
  std::string bytes(kFrameShardHeaderBytes, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace

Dataset Dataset::open(const std::string& dir, const DatasetOptions& options) {
  GPUVAR_TRACE_SPAN("query", "open");
  Dataset ds;
  ds.dir_ = dir;
  ds.options_ = options;
  ds.cache_ = std::make_unique<Cache>();

  const fs::path d(dir);
  const CampaignManifest m =
      read_campaign_manifest(d / kCampaignManifestName);
  if (!m.exists) {
    throw std::runtime_error(dir +
                             ": no campaign manifest (not a checkpoint "
                             "directory)");
  }
  ds.config_hash_ = m.config_hash;
  ds.complete_ = m.done;

  ds.shards_.reserve(m.entries.size());
  for (const auto& [idx, e] : m.entries) {
    DatasetShard s;
    s.path = d / campaign_shard_file_name(static_cast<std::size_t>(idx));
    s.header = parse_frame_shard_header(read_header_bytes(s.path),
                                        s.path.string());
    const FrameShardInfo& h = s.header.info;
    if (h.bucket_index != e.info.bucket_index || h.rows != e.info.rows ||
        h.payload_bytes != e.info.payload_bytes ||
        h.payload_hash != e.info.payload_hash) {
      throw std::runtime_error(
          s.path.string() +
          ": shard header disagrees with the campaign manifest (stale or "
          "foreign shard)");
    }
    ds.total_rows_ += h.rows;
    ds.shards_.push_back(std::move(s));
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
  auto decoded =
      std::make_shared<const RecordFrame>(read_frame_shard(shard.path).frame);

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

}  // namespace gpuvar::query
