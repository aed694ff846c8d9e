#include "common/numfmt.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace gpuvar {

namespace {

/// Appends to_chars(value, format...) for a finite value, and "nan",
/// "inf" or "-inf" (what parse_double reads back) for the rest.
template <typename... Format>
void append_double_as(std::string& out, double value, Format... format) {
  if (std::isnan(value)) {
    out += "nan";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value, format...);
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

}  // namespace

void append_double(std::string& out, double value) {
  append_double_as(out, value);
}

void append_double(std::string& out, double value, int precision) {
  append_double_as(out, value, std::chars_format::general, precision);
}

void append_int(std::string& out, long long value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string format_double(double value, int precision) {
  std::string out;
  append_double(out, value, precision);
  return out;
}

std::string format_int(long long value) {
  std::string out;
  append_int(out, value);
  return out;
}

namespace {

// from_chars rejects a leading '+' that strtod-based parsers accepted;
// strip it so CLI inputs like "+0.5" keep working.
std::string_view strip_plus(std::string_view s) {
  if (s.size() > 1 && s.front() == '+') s.remove_prefix(1);
  return s;
}

}  // namespace

bool parse_double(std::string_view s, double& out) {
  s = strip_plus(s);
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc{} && res.ptr == s.data() + s.size();
}

bool parse_int(std::string_view s, long long& out) {
  s = strip_plus(s);
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out, 10);
  return res.ec == std::errc{} && res.ptr == s.data() + s.size();
}

std::string format_hex(std::uint64_t v) {
  char buf[17];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
}

bool parse_hex(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out, 16);
  return res.ec == std::errc{} && res.ptr == s.data() + s.size();
}

}  // namespace gpuvar
