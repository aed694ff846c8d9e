#include "common/binio.hpp"

#include <bit>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace gpuvar::binio {

namespace {

/// Appends `n` bytes of `v` least-significant first: little-endian on
/// every host, so shard files are portable across byte orders.
void append_le(std::string& out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

}  // namespace

void append_u16(std::string& out, std::uint16_t v) { append_le(out, v, 2); }
void append_u32(std::string& out, std::uint32_t v) { append_le(out, v, 4); }
void append_u64(std::string& out, std::uint64_t v) { append_le(out, v, 8); }

void append_i16(std::string& out, std::int16_t v) {
  append_le(out, static_cast<std::uint16_t>(v), 2);
}

void append_i32(std::string& out, std::int32_t v) {
  append_le(out, static_cast<std::uint32_t>(v), 4);
}

void append_i64(std::string& out, std::int64_t v) {
  append_le(out, static_cast<std::uint64_t>(v), 8);
}

void append_f64(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

void append_bytes(std::string& out, std::string_view bytes) {
  append_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 h;
  h.update(bytes);
  return h.digest();
}

void Fnv1a64::update(std::string_view bytes) {
  std::uint64_t h = state_;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  state_ = h;
}

ByteReader::ByteReader(std::string_view data, std::string label)
    : data_(data), label_(std::move(label)) {}

const unsigned char* ByteReader::take(std::size_t n) {
  if (data_.size() - pos_ < n) {
    throw std::runtime_error(label_ + ": truncated (wanted " +
                             std::to_string(n) + " bytes at offset " +
                             std::to_string(pos_) + ", have " +
                             std::to_string(data_.size() - pos_) + ")");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint16_t ByteReader::read_u16() {
  const auto* p = take(2);
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t ByteReader::read_u32() {
  const auto* p = take(4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  const auto* p = take(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::int16_t ByteReader::read_i16() {
  return static_cast<std::int16_t>(read_u16());
}

std::int32_t ByteReader::read_i32() {
  return static_cast<std::int32_t>(read_u32());
}

std::int64_t ByteReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double ByteReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::string_view ByteReader::read_bytes() {
  const std::uint32_t n = read_u32();
  const auto* p = take(n);
  return {reinterpret_cast<const char*>(p), n};
}

}  // namespace gpuvar::binio
