// FrameShard is the engine's durability format: every checkpointed
// bucket round-trips through it, so "bit-identical" here is load-bearing
// for the campaign determinism contract — a resumed campaign merges
// shard-restored buckets next to freshly-run ones and the output must
// not betray which was which.
#include "telemetry/shard.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include <unistd.h>

#include "common/binio.hpp"
#include "shard_forgery.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

/// A frame with enough variety to exercise the whole payload: several
/// interned GPUs (revisited out of order), negative and sentinel field
/// values, non-finite doubles, and a name that needs CSV-style care.
RecordFrame varied_frame() {
  RecordFrame frame;
  for (int i = 0; i < 6; ++i) {
    RunRecord r;
    r.gpu_index = static_cast<std::size_t>(100 + i % 3);  // 3 GPUs, revisited
    r.loc.node = i % 3;
    r.loc.gpu = i % 2;
    r.loc.cabinet = 7;
    r.loc.row = -1;
    r.loc.column = 42;
    r.loc.node_in_group = i;
    r.loc.name = "node" + std::to_string(i % 3) + "-gpu,weird\"name";
    r.run_index = i;
    r.day_of_week = (i % 2 == 0) ? -1 : 3;
    r.perf_ms = 123.456 + i;
    r.freq_mhz = 1410.0 - i * 0.25;
    r.power_w = (i == 4) ? 0.0 : 287.5;
    r.temp_c = 65.0 + i;
    r.counters.fu_util = 0.5;
    r.counters.dram_util = (i == 5) ? -0.0 : 0.25;
    r.counters.mem_stall_frac = 1.0 / 3.0;
    r.counters.exec_stall_frac = 1e-300;
    frame.append_row(r);
  }
  return frame;
}

TEST(FrameShard, RoundTripIsBitIdentical) {
  const RecordFrame frame = varied_frame();
  const std::string bytes = serialize_frame_shard(frame, 42);
  const FrameShard parsed = parse_frame_shard(bytes, "test");

  EXPECT_EQ(parsed.info.bucket_index, 42u);
  EXPECT_EQ(parsed.info.rows, frame.size());
  ASSERT_EQ(parsed.frame.size(), frame.size());
  ASSERT_EQ(parsed.frame.gpu_count(), frame.gpu_count());

  // The decisive check: re-serializing the parsed frame reproduces the
  // original shard byte for byte (pool order, ids, every f64 bit).
  EXPECT_EQ(serialize_frame_shard(parsed.frame, 42), bytes);

  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(parsed.frame.gpu_index(i), frame.gpu_index(i));
    EXPECT_EQ(parsed.frame.loc(i).name, frame.loc(i).name);
    EXPECT_EQ(parsed.frame.run_index(i), frame.run_index(i));
    EXPECT_EQ(parsed.frame.day_of_week(i), frame.day_of_week(i));
  }
}

TEST(FrameShard, EmptyFrameRoundTrips) {
  const RecordFrame empty;
  const std::string bytes = serialize_frame_shard(empty, 0);
  EXPECT_EQ(bytes.size(), kFrameShardHeaderBytes);
  const FrameShard parsed = parse_frame_shard(bytes, "empty");
  EXPECT_EQ(parsed.frame.size(), 0u);
  EXPECT_EQ(parsed.info.payload_bytes, 0u);
}

TEST(FrameShard, StreamRoundTripReportsInfo) {
  const RecordFrame frame = varied_frame();
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "gpuvar_stream.shard";
  FrameShardInfo info;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    info = write_frame_shard(out, frame, 7);
  }
  EXPECT_EQ(info.bucket_index, 7u);
  EXPECT_EQ(info.rows, frame.size());
  EXPECT_EQ(std::filesystem::file_size(path),
            info.payload_bytes + kFrameShardHeaderBytes);

  const FrameShard parsed = read_frame_shard(path);
  EXPECT_EQ(parsed.info.payload_hash, info.payload_hash);
  EXPECT_EQ(serialize_frame_shard(parsed.frame, 7),
            serialize_frame_shard(frame, 7));
  std::filesystem::remove(path);

  // The reader names the path it could not open.
  try {
    read_frame_shard(path);
    FAIL() << "missing shard file parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos);
  }
}

TEST(FrameShard, FileReadersNameThePathOfHostileFiles) {
  // An empty file, a directory and a truncated file: both file readers
  // answer each with a runtime_error naming the path, never a crash or
  // a smaller frame.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("gpuvar_hostile_shards_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string bytes = serialize_frame_shard(varied_frame(), 2);
  const auto write = [&](const fs::path& p, std::string_view content) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  const fs::path empty = dir / "empty.shard";
  write(empty, "");
  const fs::path directory = dir / "directory.shard";
  fs::create_directories(directory);
  const fs::path truncated = dir / "truncated.shard";
  write(truncated, std::string_view(bytes).substr(0, bytes.size() - 5));
  const fs::path short_header = dir / "short-header.shard";
  write(short_header, std::string_view(bytes).substr(0, 10));

  const auto expect_names = [](const fs::path& p, const auto& read,
                               const char* why) {
    try {
      read(p);
      ADD_FAILURE() << p << " parsed";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(p.string()), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  };
  const auto whole = [](const fs::path& p) { (void)read_frame_shard(p); };
  const auto header = [](const fs::path& p) {
    (void)read_frame_shard_header(p);
  };
  expect_names(empty, whole, "truncated");
  expect_names(directory, whole, "cannot read");
  expect_names(truncated, whole, "truncated");
  expect_names(short_header, whole, "truncated");
  expect_names(empty, header, "truncated");
  expect_names(directory, header, "cannot read");
  expect_names(short_header, header, "truncated");
  expect_names(dir / "missing.shard", header, "cannot open");

  // The header reader needs only the prefix: a file cut inside its
  // payload still yields the header the writer stored.
  const FrameShardHeader h = read_frame_shard_header(truncated);
  EXPECT_EQ(h.info.bucket_index, 2u);
  EXPECT_EQ(h.info.rows, varied_frame().size());
  EXPECT_EQ(h.info.payload_bytes, bytes.size() - kFrameShardHeaderBytes);
  EXPECT_EQ(h.info.payload_hash,
            parse_frame_shard(bytes, "whole").info.payload_hash);
  fs::remove_all(dir);
}

TEST(FrameShard, PoolAppendRowCouldNotBuildIsRejected) {
  // Well-formed bytes with a correct payload hash, but a pool that
  // RecordFrame::append_row could never have built. Only the decoder's
  // pool check stands between these and a silently wrong frame.
  const RecordFrame frame = varied_frame();
  const std::pair<PoolDefect, const char*> cases[] = {
      {PoolDefect::kDuplicateGpuIndex, "repeats gpu_index"},
      {PoolDefect::kOutOfOrderFirstUse, "first-appearance order"},
      {PoolDefect::kUnreferencedEntry, "never referenced"},
  };
  for (const auto& [defect, why] : cases) {
    const std::string bytes = forge_pool_defect(frame, defect, 3);
    try {
      parse_frame_shard(bytes, "forged-pool.shard");
      FAIL() << "pool defect parsed: " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("forged-pool.shard"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

TEST(FrameShard, TruncatedShardIsRejectedWithClearError) {
  const std::string bytes = serialize_frame_shard(varied_frame(), 1);
  // Every strict prefix must fail loudly, never parse as a smaller
  // frame: a half-written spill file cannot masquerade as data.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3},
                          kFrameShardHeaderBytes - 1, kFrameShardHeaderBytes,
                          bytes.size() - 1}) {
    EXPECT_THROW(parse_frame_shard(std::string_view(bytes).substr(0, cut),
                                   "trunc"),
                 std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
  try {
    parse_frame_shard(std::string_view(bytes).substr(0, bytes.size() - 1),
                      "bucket-000001.shard");
    FAIL() << "truncated shard parsed";
  } catch (const std::runtime_error& e) {
    // The error names the file and says what is wrong with it.
    EXPECT_NE(std::string(e.what()).find("bucket-000001.shard"),
              std::string::npos);
  }
}

TEST(FrameShard, BadMagicIsRejected) {
  std::string bytes = serialize_frame_shard(varied_frame(), 0);
  bytes[0] = 'X';
  try {
    parse_frame_shard(bytes, "notashard");
    FAIL() << "bad magic parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(FrameShard, UnsupportedVersionIsRejected) {
  std::string bytes = serialize_frame_shard(varied_frame(), 0);
  bytes[4] = static_cast<char>(kFrameShardVersion + 1);  // version u16 LE
  try {
    parse_frame_shard(bytes, "future");
    FAIL() << "future version parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(FrameShard, CorruptPayloadFailsTheHashCheck) {
  std::string bytes = serialize_frame_shard(varied_frame(), 0);
  // Flip one payload byte; the header's FNV-1a hash must catch it.
  bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x01);
  try {
    parse_frame_shard(bytes, "corrupt");
    FAIL() << "corrupt payload parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos);
  }
}

TEST(FrameShard, HeaderLengthLieIsRejected) {
  const RecordFrame frame = varied_frame();
  std::string bytes = serialize_frame_shard(frame, 0);
  // Understate payload_bytes in the header (offset 4+2+8+8+8 = 30,
  // little-endian u64): the size cross-check fires before any decode.
  bytes[30] = static_cast<char>(bytes[30] ^ 0x01);
  EXPECT_THROW(parse_frame_shard(bytes, "lying-header"), std::runtime_error);
}

TEST(FrameShard, HeaderRowCountLieIsRejectedAsRuntimeError) {
  // Understate the header's row count (u64 at offset 4+2+8 = 14). The
  // payload size and hash checks still pass — they cover only the
  // payload — so the only defense is the trailing-bytes check after
  // the last column. It must throw std::runtime_error (never
  // std::logic_error): the engine's resume scan demotes runtime_error
  // to "re-run this bucket", while anything else aborts the campaign.
  std::string bytes = serialize_frame_shard(varied_frame(), 0);
  ASSERT_EQ(static_cast<unsigned char>(bytes[14]), 6u);  // rows == 6
  bytes[14] = 2;
  try {
    parse_frame_shard(bytes, "rows-lie");
    FAIL() << "row-count lie parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rows-lie"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
  // Overstated past anything the payload can hold: refused before any
  // column is sized from it (a huge resize would throw bad_alloc or
  // length_error, which the resume scan does not demote).
  bytes[14] = 6;
  bytes[21] = 0x40;  // rows += 2^62
  try {
    parse_frame_shard(bytes, "rows-overstated");
    FAIL() << "overstated row count parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rows-overstated"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exceed the payload"),
              std::string::npos);
  }
}

TEST(FrameShard, StreamingHashMatchesSerializedBytes) {
  // hash_frame_shard must equal hashing the materialized serialization
  // — the guard that keeps the streaming emitter and the serializer
  // from drifting apart field by field.
  const RecordFrame frame = varied_frame();
  EXPECT_EQ(hash_frame_shard(frame, 42),
            binio::fnv1a64(serialize_frame_shard(frame, 42)));
  EXPECT_NE(hash_frame_shard(frame, 42), hash_frame_shard(frame, 43));
  const RecordFrame empty;
  EXPECT_EQ(hash_frame_shard(empty, 0),
            binio::fnv1a64(serialize_frame_shard(empty, 0)));

  // And the incremental hasher itself is chunking-independent.
  const std::string bytes = serialize_frame_shard(frame, 42);
  binio::Fnv1a64 pieces;
  pieces.update(std::string_view(bytes).substr(0, 7));
  pieces.update(std::string_view(bytes).substr(7));
  EXPECT_EQ(pieces.digest(), binio::fnv1a64(bytes));
}

TEST(FrameShard, SerializationIsDeterministic) {
  // Two serializations of equal frames are equal bytes — the property
  // the manifest's recorded payload hash depends on.
  const std::string a = serialize_frame_shard(varied_frame(), 3);
  const std::string b = serialize_frame_shard(varied_frame(), 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(binio::fnv1a64(a), binio::fnv1a64(b));
}

}  // namespace
}  // namespace gpuvar
