// Little-endian binary serialization primitives for spill/checkpoint
// formats.
//
// The shard spill format (telemetry/shard.hpp) must be bit-exact: a
// frame written on one machine and read back anywhere reproduces the
// same column bytes, so the campaign engine's merged output is
// identical whether a bucket stayed resident or round-tripped through
// disk. Text formatting cannot promise that for doubles, so every
// field here is a fixed-width little-endian integer and doubles travel
// as their raw IEEE-754 bit pattern. Writers append into a growing
// byte buffer (one ostream write per shard, no per-field stream
// calls); the reader walks a bounded view and reports overruns as
// errors instead of reading garbage — a truncated file can never
// produce a silently short frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace gpuvar::binio {

void append_u16(std::string& out, std::uint16_t v);
void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
void append_i16(std::string& out, std::int16_t v);
void append_i32(std::string& out, std::int32_t v);
void append_i64(std::string& out, std::int64_t v);
/// Raw IEEE-754 bit pattern, little-endian: bit-exact round trip,
/// including negative zero, infinities and NaN payloads.
void append_f64(std::string& out, double v);
/// u32 length prefix + bytes.
void append_bytes(std::string& out, std::string_view bytes);

/// FNV-1a over a byte range; the integrity hash stored in shard
/// headers and manifests (content fingerprint, not cryptographic).
std::uint64_t fnv1a64(std::string_view bytes);

/// Incremental FNV-1a: feed bytes in any chunking; digest() equals
/// fnv1a64 over the concatenation. Lets callers fingerprint large
/// serializations (a whole merged campaign frame) without ever
/// materializing the serialized bytes.
class Fnv1a64 {
 public:
  void update(std::string_view bytes);
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Cursor over a serialized byte buffer. Every read checks the
/// remaining length and throws std::runtime_error mentioning `label`
/// (e.g. the file name) on overrun, so truncation surfaces as a clear
/// error at the exact field that fell off the end.
class ByteReader {
 public:
  ByteReader(std::string_view data, std::string label);

  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int16_t read_i16();
  std::int32_t read_i32();
  double read_f64();
  std::int64_t read_i64();
  /// Reads a u32 length prefix, then that many bytes (a view into the
  /// underlying buffer — valid while the buffer lives).
  std::string_view read_bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  const unsigned char* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string label_;
};

}  // namespace gpuvar::binio
