#include "telemetry/shard.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/binio.hpp"
#include "telemetry/frame.hpp"

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

/// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  int fd_;
};

/// Reads the first min(file size, `limit`) bytes of the regular file at
/// `path` into the buffer `dest(n)` returns (room for n bytes) and
/// returns how many it read — fewer than n only if the file shrank
/// under the read, which the shard parser then reports as truncation.
/// The one shard-file reader: open, fstat, a pread loop retrying on
/// EINTR, close (also on a throw).
template <typename Dest>
std::size_t read_file_prefix(const std::string& path,
                             std::size_t limit, Dest&& dest) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const FdCloser closes_fd(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw std::runtime_error("cannot read " + path);
  }
  const std::size_t n =
      std::min(static_cast<std::size_t>(st.st_size), limit);
  char* buf = dest(n);
  std::size_t got = 0;
  while (got < n) {
    const ::ssize_t r =
        ::pread(fd, buf + got, n - got, static_cast<::off_t>(got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cannot read " + path);
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
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

FrameShard parse_frame_shard(std::string_view bytes, std::string label) {
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

  FrameShard out;
  out.info = h.info;
  RecordFrame& f = out.frame;
  const auto fail = [&](const std::string& defect) {
    throw std::runtime_error(label + ": " + defect);
  };

  // Smallest encodings: a pool entry with an empty name, and one row
  // across all eleven columns. Counts the payload cannot hold are
  // refused before anything is sized from them.
  constexpr std::uint64_t kMinPoolEntryBytes = 8 + 6 * 4 + 4;
  constexpr std::uint64_t kRowBytes = 4 + 4 + 2 + 8 * 8;
  if (h.pool > r.remaining() / kMinPoolEntryBytes ||
      h.info.rows > r.remaining() / kRowBytes) {
    fail("header row/pool counts exceed the payload");
  }

  // Pool snapshot, in the frame's first-appearance id order.
  f.gpus_.reserve(static_cast<std::size_t>(h.pool));
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
    // Entry i takes pool id i, as append_row would have interned it.
    if (!f.index_gpu(g.gpu_index).second) {
      fail("pool repeats gpu_index " + std::to_string(g.gpu_index));
    }
    f.gpus_.push_back(std::move(g));
  }

  // The id column must introduce pool ids in order 0, 1, 2, ... and
  // (checked once the payload is fully read) reach every entry: exactly
  // the pool append_row would have interned.
  const auto rows = static_cast<std::size_t>(h.info.rows);
  f.gpu_id_.resize(rows);
  std::uint32_t next_new = 0;
  for (auto& id : f.gpu_id_) {
    id = r.read_u32();
    if (id >= f.gpus_.size()) {
      fail("row references pool id " + std::to_string(id) + " outside the " +
           std::to_string(f.gpus_.size()) + "-entry pool");
    }
    if (id > next_new) {
      fail("row introduces pool id " + std::to_string(id) + " before id " +
           std::to_string(next_new) + " (pool not in first-appearance order)");
    }
    if (id == next_new) ++next_new;
  }
  f.run_.resize(rows);
  for (auto& run : f.run_) run = r.read_i32();
  f.day_.resize(rows);
  for (auto& day : f.day_) day = r.read_i16();
  for (auto* col : {&f.perf_, &f.freq_, &f.power_, &f.temp_, &f.fu_, &f.dram_,
                    &f.mem_stall_, &f.exec_stall_}) {
    col->resize(rows);
    for (auto& v : *col) v = r.read_f64();
  }
  // Payload size and hash cover only the payload bytes, so a header
  // whose rows/pool counts understate the content passes both checks
  // and leaves unread bytes here. That is file corruption, not a
  // library bug: it must surface as std::runtime_error so the engine's
  // resume scan demotes the bucket to re-run instead of aborting.
  if (!r.at_end()) {
    fail(std::to_string(r.remaining()) +
         " trailing payload bytes (header row/pool counts disagree with "
         "the payload)");
  }
  if (next_new != f.gpus_.size()) {
    fail("pool entry " + std::to_string(next_new) +
         " is never referenced by a row");
  }
  return out;
}

FrameShardInfo write_frame_shard(std::ostream& out, const RecordFrame& frame,
                                 std::uint64_t bucket_index) {
  FrameShardInfo info;
  const std::string bytes = serialize_with_info(frame, bucket_index, info);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return info;
}

FrameShard read_frame_shard(const std::string& path) {
  std::string bytes;
  const std::size_t n = read_file_prefix(
      path, std::numeric_limits<std::size_t>::max(), [&](std::size_t size) {
        bytes.resize(size);
        return bytes.data();
      });
  bytes.resize(n);
  return parse_frame_shard(bytes, path);
}

FrameShardHeader read_frame_shard_header(const std::string& path) {
  std::array<char, kFrameShardHeaderBytes> buf;
  const std::size_t n = read_file_prefix(
      path, buf.size(), [&](std::size_t) { return buf.data(); });
  return parse_frame_shard_header(std::string_view(buf.data(), n), path);
}

}  // namespace gpuvar
