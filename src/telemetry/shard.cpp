#include "telemetry/shard.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/binio.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

namespace {

/// "GVSH" little-endian: the first four bytes of every shard file.
constexpr std::uint32_t kShardMagic = 0x48535647u;

void append_header(std::string& out, const FrameShardHeader& h) {
  binio::append_u32(out, kShardMagic);
  binio::append_u16(out, kFrameShardVersion);
  binio::append_u64(out, h.info.bucket_index);
  binio::append_u64(out, h.info.rows);
  binio::append_u64(out, h.pool);
  binio::append_u64(out, h.info.payload_bytes);
  binio::append_u64(out, h.info.payload_hash);
  binio::append_i64(out, h.stats.node_min);
  binio::append_i64(out, h.stats.node_max);
  binio::append_i64(out, h.stats.gpu_index_min);
  binio::append_i64(out, h.stats.gpu_index_max);
  binio::append_i64(out, h.stats.day_min);
  binio::append_i64(out, h.stats.day_max);
}

FrameShardHeader read_header(binio::ByteReader& r, const std::string& label) {
  const std::uint32_t magic = r.read_u32();
  if (magic != kShardMagic) {
    throw std::runtime_error(label + ": not a gpuvar frame shard (bad magic)");
  }
  const std::uint16_t version = r.read_u16();
  if (version != kFrameShardVersion) {
    throw std::runtime_error(label + ": unsupported shard version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kFrameShardVersion) + ")");
  }
  FrameShardHeader h;
  h.info.bucket_index = r.read_u64();
  h.info.rows = r.read_u64();
  h.pool = r.read_u64();
  h.info.payload_bytes = r.read_u64();
  h.info.payload_hash = r.read_u64();
  h.stats.node_min = r.read_i64();
  h.stats.node_max = r.read_i64();
  h.stats.gpu_index_min = r.read_i64();
  h.stats.gpu_index_max = r.read_i64();
  h.stats.day_min = r.read_i64();
  h.stats.day_max = r.read_i64();
  return h;
}

/// Streams the payload bytes to `sink(std::string_view)` in bounded
/// chunks. Both the serializer and the streaming hasher consume this
/// one emitter, so the bytes they see can never drift apart.
template <typename Sink>
void emit_payload(const RecordFrame& frame, Sink&& sink) {
  constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::string buf;
  buf.reserve(kChunkBytes + 512);
  const auto flush_if_full = [&] {
    if (buf.size() >= kChunkBytes) {
      sink(std::string_view(buf));
      buf.clear();
    }
  };
  const auto emit_column = [&](std::span<const double> col) {
    for (double v : col) {
      binio::append_f64(buf, v);
      flush_if_full();
    }
  };
  for (const GpuRef& g : frame.gpus()) {
    binio::append_u64(buf, static_cast<std::uint64_t>(g.gpu_index));
    binio::append_i32(buf, g.loc.node);
    binio::append_i32(buf, g.loc.gpu);
    binio::append_i32(buf, g.loc.cabinet);
    binio::append_i32(buf, g.loc.row);
    binio::append_i32(buf, g.loc.column);
    binio::append_i32(buf, g.loc.node_in_group);
    binio::append_bytes(buf, g.loc.name);
    flush_if_full();
  }
  for (std::uint32_t id : frame.gpu_ids()) {
    binio::append_u32(buf, id);
    flush_if_full();
  }
  for (std::int32_t run : frame.run_indices()) {
    binio::append_i32(buf, run);
    flush_if_full();
  }
  for (std::int16_t day : frame.days_of_week()) {
    binio::append_i16(buf, day);
    flush_if_full();
  }
  emit_column(frame.perf_ms());
  emit_column(frame.freq_mhz());
  emit_column(frame.power_w());
  emit_column(frame.temp_c());
  emit_column(frame.fu_util());
  emit_column(frame.dram_util());
  emit_column(frame.mem_stall_frac());
  emit_column(frame.exec_stall_frac());
  if (!buf.empty()) sink(std::string_view(buf));
}

std::string serialize_with_info(const RecordFrame& frame,
                                std::uint64_t bucket_index,
                                FrameShardInfo& info) {
  // Payload first: the header stores its size and hash.
  std::string payload;
  // Rough pre-size: pool entries plus eleven columns.
  payload.reserve(frame.gpus().size() * 64 + frame.size() * 74);
  emit_payload(frame, [&](std::string_view chunk) { payload.append(chunk); });

  FrameShardHeader h;
  h.info.bucket_index = bucket_index;
  h.info.rows = frame.size();
  h.pool = frame.gpus().size();
  h.info.payload_bytes = payload.size();
  h.info.payload_hash = binio::fnv1a64(payload);
  h.stats = frame_shard_stats(frame);

  info = h.info;

  std::string out;
  out.reserve(payload.size() + kFrameShardHeaderBytes);
  append_header(out, h);
  out.append(payload);
  return out;
}

}  // namespace

FrameShardStats frame_shard_stats(const RecordFrame& frame) {
  FrameShardStats s;
  // Every pool entry is referenced by at least one row (interning
  // happens on append), so pool mins/maxes are row mins/maxes.
  for (const GpuRef& g : frame.gpus()) {
    const auto node = static_cast<std::int64_t>(g.loc.node);
    const auto gpu = static_cast<std::int64_t>(g.gpu_index);
    if (s.node_min > s.node_max) {
      s.node_min = s.node_max = node;
      s.gpu_index_min = s.gpu_index_max = gpu;
      continue;
    }
    s.node_min = std::min(s.node_min, node);
    s.node_max = std::max(s.node_max, node);
    s.gpu_index_min = std::min(s.gpu_index_min, gpu);
    s.gpu_index_max = std::max(s.gpu_index_max, gpu);
  }
  for (std::int16_t day : frame.days_of_week()) {
    const auto d = static_cast<std::int64_t>(day);
    if (s.day_min > s.day_max) {
      s.day_min = s.day_max = d;
      continue;
    }
    s.day_min = std::min(s.day_min, d);
    s.day_max = std::max(s.day_max, d);
  }
  return s;
}

FrameShardHeader parse_frame_shard_header(std::string_view bytes,
                                          const std::string& label) {
  binio::ByteReader r(bytes.substr(0, kFrameShardHeaderBytes), label);
  return read_header(r, label);
}

std::string serialize_frame_shard(const RecordFrame& frame,
                                  std::uint64_t bucket_index) {
  FrameShardInfo info;
  return serialize_with_info(frame, bucket_index, info);
}

std::uint64_t hash_frame_shard(const RecordFrame& frame,
                               std::uint64_t bucket_index) {
  // Pass 1: payload size and hash, which the header embeds.
  binio::Fnv1a64 payload_hash;
  std::uint64_t payload_bytes = 0;
  emit_payload(frame, [&](std::string_view chunk) {
    payload_hash.update(chunk);
    payload_bytes += chunk.size();
  });

  FrameShardHeader h;
  h.info.bucket_index = bucket_index;
  h.info.rows = frame.size();
  h.pool = frame.gpus().size();
  h.info.payload_bytes = payload_bytes;
  h.info.payload_hash = payload_hash.digest();
  h.stats = frame_shard_stats(frame);
  std::string header;
  header.reserve(kFrameShardHeaderBytes);
  append_header(header, h);

  // Pass 2: the whole-shard hash is header bytes then payload bytes.
  binio::Fnv1a64 hash;
  hash.update(header);
  emit_payload(frame, [&](std::string_view chunk) { hash.update(chunk); });
  return hash.digest();
}

DecodedShardColumns decode_frame_shard_columns(std::string_view bytes,
                                               std::string label) {
  binio::ByteReader r(bytes, label);
  const FrameShardHeader h = read_header(r, label);
  if (r.remaining() != h.info.payload_bytes) {
    throw std::runtime_error(
        label + ": truncated or oversized shard (header promises " +
        std::to_string(h.info.payload_bytes) + " payload bytes, file holds " +
        std::to_string(r.remaining()) + ")");
  }
  const std::string_view payload = bytes.substr(bytes.size() - r.remaining());
  const std::uint64_t hash = binio::fnv1a64(payload);
  if (hash != h.info.payload_hash) {
    throw std::runtime_error(label +
                             ": payload corrupt (content hash mismatch)");
  }

  DecodedShardColumns out;
  out.header = h;

  // Pool snapshot, in the frame's first-appearance id order.
  out.pool.reserve(h.pool);
  for (std::uint64_t i = 0; i < h.pool; ++i) {
    GpuRef g;
    g.gpu_index = static_cast<std::size_t>(r.read_u64());
    g.loc.node = r.read_i32();
    g.loc.gpu = r.read_i32();
    g.loc.cabinet = r.read_i32();
    g.loc.row = r.read_i32();
    g.loc.column = r.read_i32();
    g.loc.node_in_group = r.read_i32();
    g.loc.name = std::string(r.read_bytes());
    out.pool.push_back(std::move(g));
  }

  const auto rows = static_cast<std::size_t>(h.info.rows);
  out.gpu_ids.resize(rows);
  for (auto& id : out.gpu_ids) {
    id = r.read_u32();
    if (id >= out.pool.size()) {
      throw std::runtime_error(label + ": row references pool id " +
                               std::to_string(id) + " outside the " +
                               std::to_string(out.pool.size()) +
                               "-entry pool");
    }
  }
  out.runs.resize(rows);
  for (auto& run : out.runs) run = r.read_i32();
  out.days.resize(rows);
  for (auto& day : out.days) day = r.read_i16();
  for (auto& col : out.metric_cols) {
    col.resize(rows);
    for (auto& v : col) v = r.read_f64();
  }
  // Payload size and hash cover only the payload bytes, so a header
  // whose rows/pool counts understate the content passes both checks
  // and leaves unread bytes here. That is file corruption, not a
  // library bug: it must surface as std::runtime_error so the engine's
  // resume scan demotes the bucket to re-run instead of aborting.
  if (!r.at_end()) {
    throw std::runtime_error(
        label + ": " + std::to_string(r.remaining()) +
        " trailing payload bytes (header row/pool counts disagree with "
        "the payload)");
  }
  return out;
}

std::size_t DecodedShardColumns::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const GpuRef& g : pool) total += sizeof(GpuRef) + g.loc.name.size();
  total += gpu_ids.capacity() * sizeof(std::uint32_t);
  total += runs.capacity() * sizeof(std::int32_t);
  total += days.capacity() * sizeof(std::int16_t);
  for (const auto& col : metric_cols) total += col.capacity() * sizeof(double);
  return total;
}

void append_decoded_rows(RecordFrame& out, const DecodedShardColumns& d) {
  for (std::size_t i = 0; i < d.gpu_ids.size(); ++i) {
    const GpuRef& g = d.pool[d.gpu_ids[i]];
    RunRecord rec;
    rec.gpu_index = g.gpu_index;
    rec.loc = g.loc;
    rec.run_index = d.runs[i];
    rec.day_of_week = d.days[i];
    rec.perf_ms = d.metric_cols[0][i];
    rec.freq_mhz = d.metric_cols[1][i];
    rec.power_w = d.metric_cols[2][i];
    rec.temp_c = d.metric_cols[3][i];
    rec.counters.fu_util = d.metric_cols[4][i];
    rec.counters.dram_util = d.metric_cols[5][i];
    rec.counters.mem_stall_frac = d.metric_cols[6][i];
    rec.counters.exec_stall_frac = d.metric_cols[7][i];
    out.append_row(rec);
  }
}

FrameShard parse_frame_shard(std::string_view bytes, std::string label) {
  const DecodedShardColumns d =
      decode_frame_shard_columns(bytes, std::move(label));
  FrameShard out;
  out.info = d.header.info;
  out.frame.reserve(d.gpu_ids.size());
  append_decoded_rows(out.frame, d);
  return out;
}

FrameShardInfo write_frame_shard(std::ostream& out, const RecordFrame& frame,
                                 std::uint64_t bucket_index) {
  FrameShardInfo info;
  const std::string bytes = serialize_with_info(frame, bucket_index, info);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return info;
}

FrameShard read_frame_shard(std::istream& in, std::string label) {
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    bytes.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  return parse_frame_shard(bytes, std::move(label));
}

}  // namespace gpuvar
