// Campaign checkpoint manifest: the durable index of a checkpoint
// directory.
//
// A checkpointed campaign directory holds one shard file per bucket
// (telemetry/shard.hpp) plus "manifest.txt" recording, per bucket, the
// facts needed to decide whether the shard on disk is current: row
// count, payload size, payload hash. The write path (core/engine.hpp)
// appends a line per completed bucket and atomically rewrites the file
// at campaign start/end; the read path (query/dataset.hpp) treats the
// same directory as an immutable dataset. Both sides share this one
// parser/renderer so the format cannot drift.
//
// Format, line-oriented plain text:
//   gpuvar-campaign-manifest v1
//   config <hex>
//   bucket N rows N payload N hash <hex>   (one per completed bucket)
//   done                                   (present once all buckets ran)
// Entry lines are parsed only when they match this shape exactly;
// anything else — e.g. the torn tail of an append that died mid-write —
// is skipped, so the durable prefix is what counts. The "done" line is
// the campaign's only completion signal: the write path adds it in the
// final atomic rewrite, and readers report a store without it as
// incomplete.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "telemetry/shard.hpp"

namespace gpuvar {

inline constexpr const char* kCampaignManifestName = "manifest.txt";
inline constexpr const char* kCampaignManifestMagic =
    "gpuvar-campaign-manifest v1";

struct CampaignManifest {
  bool exists = false;
  std::uint64_t config_hash = 0;
  bool done = false;
  /// bucket index -> recorded shard facts (last entry wins, so an
  /// append-crash duplicate resolves to the freshest record).
  std::map<std::uint64_t, FrameShardInfo> entries;
};

/// Whether a shard's own facts (its header, or a full parse) match the
/// manifest's entry for it: bucket index, rows, payload size and
/// payload hash all agree. The one test both the engine's resume scan
/// and Dataset::open apply, so a shard one of them accepts the other
/// accepts too.
bool shard_matches_entry(const FrameShardInfo& shard,
                         const FrameShardInfo& entry);

/// "bucket-000042.shard": fixed width so a directory listing sorts in
/// bucket order.
std::string campaign_shard_file_name(std::size_t bucket_index);

/// Appends campaign_shard_file_name(bucket_index) to `out` without a
/// temporary: a store's shard paths are one directory prefix plus this.
void append_campaign_shard_file_name(std::string& out,
                                     std::size_t bucket_index);

/// Reads and parses the manifest. A missing file is a fresh campaign; a
/// present file whose first line is not the manifest magic is refused
/// (the directory holds something that is not ours) with
/// std::runtime_error. Unparseable entry lines are skipped.
CampaignManifest read_campaign_manifest(const std::filesystem::path& path);

/// The exact line the manifest records for one completed bucket.
std::string campaign_manifest_entry_line(const FrameShardInfo& info);

/// Atomically replaces the manifest (write a sibling, then rename) with
/// the given entries in bucket order.
void rewrite_campaign_manifest(
    const std::filesystem::path& dir, std::uint64_t config_hash,
    const std::map<std::uint64_t, FrameShardInfo>& entries, bool done);

}  // namespace gpuvar
