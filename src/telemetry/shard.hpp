// FrameShard: the self-describing binary spill format for one campaign
// bucket.
//
// The campaign engine (core/engine.hpp) streams each node bucket into a
// RecordFrame and — when resident bytes exceed the shard budget, or a
// checkpoint directory is recording the campaign — serializes the
// bucket to one shard file. A shard is a complete, standalone frame:
// header (magic, version, bucket index, row/pool counts, payload size
// and hash) followed by a payload holding the interned GPU pool
// snapshot and the raw columns. Doubles travel as IEEE-754 bit
// patterns (common/binio.hpp), so write -> read -> merge produces a
// frame byte-identical to one that never left memory — the property
// the engine's "any spill threshold, same output" contract rests on.
//
// Robustness contract: a reader never trusts the file. Bad magic, an
// unsupported version, a header that promises more payload than the
// file holds, a payload whose hash disagrees with the header, or a pool
// that RecordFrame::append_row could not have built all throw
// std::runtime_error naming the shard and the defect — the engine
// treats any of these as "bucket missing" and re-runs it from its seed
// path rather than merging garbage.
//
// Decoding is columnar: parse_frame_shard fills a RecordFrame's columns
// straight from the payload, with no per-row record or interning. The
// campaign engine's resume and merge, the query cache and streamed
// queries all hold the decoded shard as that RecordFrame.
//
// File I/O is one POSIX path: read_frame_shard (the whole file) and
// read_frame_shard_header (the header prefix only) share one file-local
// reader — open(O_RDONLY|O_CLOEXEC), fstat, a pread loop that retries
// on EINTR, close — so both report a missing file as "cannot open X"
// and a directory or read error as "cannot read X".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/frame.hpp"

namespace gpuvar {

/// Format version written by this build; readers reject anything else.
/// v2 appended the field-range stats block to the header so query
/// predicate pushdown can skip a shard from header bytes alone.
inline constexpr std::uint16_t kFrameShardVersion = 2;

/// Serialized header size: u32 magic + u16 version + five u64 fields
/// (bucket index, rows, pool, payload bytes, payload hash) + six i64
/// stats fields (node/gpu-index/day min-max). A shard file is exactly
/// this many bytes plus its payload.
inline constexpr std::size_t kFrameShardHeaderBytes = 4 + 2 + 5 * 8 + 6 * 8;

/// Inclusive per-shard value ranges for the fields query predicates
/// can push down. A default-constructed block (min > max) means "no
/// rows", so every range test reads as empty. These live in the header
/// — before the payload — precisely so a reader can rule a shard out
/// without touching, let alone decoding, its payload.
struct FrameShardStats {
  std::int64_t node_min = 0;
  std::int64_t node_max = -1;
  std::int64_t gpu_index_min = 0;
  std::int64_t gpu_index_max = -1;
  std::int64_t day_min = 0;
  std::int64_t day_max = -1;
};

/// Computes the stats block serialize_frame_shard embeds for `frame`.
FrameShardStats frame_shard_stats(const RecordFrame& frame);

/// What a completed shard write looks like from the outside — the facts
/// the campaign manifest records per bucket.
struct FrameShardInfo {
  std::uint64_t bucket_index = 0;
  std::uint64_t rows = 0;
  std::uint64_t payload_bytes = 0;
  /// FNV-1a of the payload: the manifest's staleness check. A manifest
  /// entry whose hash disagrees with the shard on disk forces that
  /// bucket to re-run.
  std::uint64_t payload_hash = 0;
};

/// Everything the fixed-size header records, including the fields the
/// manifest does not mirror (pool size, stats block).
struct FrameShardHeader {
  FrameShardInfo info;
  std::uint64_t pool = 0;
  FrameShardStats stats;
};

/// Parses just the header from `bytes` (a whole shard file or any
/// prefix holding at least kFrameShardHeaderBytes). Validates magic
/// and version only — the payload need not be present, which is what
/// lets a query planner scan a checkpoint directory by reading
/// kFrameShardHeaderBytes per shard.
FrameShardHeader parse_frame_shard_header(std::string_view bytes,
                                          const std::string& label);

/// One bucket read back from a shard.
struct FrameShard {
  FrameShardInfo info;
  RecordFrame frame;
};

/// Serializes `frame` as bucket `bucket_index` into a byte buffer
/// (header + payload, ready to be written as one file).
std::string serialize_frame_shard(const RecordFrame& frame,
                                  std::uint64_t bucket_index);

/// FNV-1a of serialize_frame_shard(frame, bucket_index), computed by
/// streaming the serialization through the hash in bounded chunks —
/// the content fingerprint of a merged campaign frame (which can be
/// orders of magnitude larger than any shard budget) without ever
/// materializing a second copy of it.
std::uint64_t hash_frame_shard(const RecordFrame& frame,
                               std::uint64_t bucket_index);

/// Parses a serialized shard straight into a RecordFrame's columns.
/// `label` names the source (e.g. the file path) in error messages.
/// Throws std::runtime_error on truncation, bad magic, version mismatch,
/// payload hash mismatch, or a pool append_row would not have built:
/// rows must introduce pool ids in order 0, 1, 2, ..., every pool entry
/// must be referenced, and gpu_index values must be unique.
FrameShard parse_frame_shard(std::string_view bytes, std::string label);

/// Writes `frame` as one shard to `out`; returns the facts the
/// manifest records. The stream receives a single write.
FrameShardInfo write_frame_shard(std::ostream& out, const RecordFrame& frame,
                                 std::uint64_t bucket_index);

/// Reads and parses the shard file at `path`: one open, one fstat to
/// size the buffer, a pread loop to fill it. Same error contract as
/// parse_frame_shard, plus "cannot open" (missing or unopenable file)
/// and "cannot read" (not a regular file, e.g. a directory, or a read
/// error); every error names the path.
FrameShard read_frame_shard(const std::string& path);

/// Reads and parses only the fixed-size header of the shard file at
/// `path`: at most kFrameShardHeaderBytes are read, into a stack
/// buffer, through the same open/fstat/pread path as read_frame_shard
/// and with the same "cannot open" / "cannot read" errors. A file
/// shorter than the header fails as a truncated header naming the path.
/// This is what lets Dataset::open verify thousands of shards without
/// touching their payloads.
FrameShardHeader read_frame_shard_header(const std::string& path);

}  // namespace gpuvar
