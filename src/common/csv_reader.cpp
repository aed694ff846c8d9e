#include "common/csv_reader.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/numfmt.hpp"
#include "common/require.hpp"

namespace gpuvar {

namespace {

/// Bytes that end a run of plain field bytes.
constexpr std::array<bool, 256> kSpecial = [] {
  std::array<bool, 256> t{};
  t[static_cast<unsigned char>(',')] = true;
  t[static_cast<unsigned char>('\n')] = true;
  t[static_cast<unsigned char>('\r')] = true;
  t[static_cast<unsigned char>('"')] = true;
  return t;
}();

/// A field's [begin, end) within its buffer.
struct FieldRange {
  std::size_t begin;
  std::size_t end;
};

/// Splits the record that starts at data[pos] into fields, calling
/// `emit(FieldRange)` for each, and leaves `pos` past the record's line
/// end (or at `size`). A field with quotes or CRs is unescaped in place:
/// quotes that open or close a quoted run go, a doubled quote inside one
/// becomes one quote, and a CR outside one is dropped. Adds the line
/// ends it consumes to `newlines`. Returns false if a quoted run is
/// still open at the end of the input.
template <typename Emit>
bool split_record(char* data, std::size_t size, std::size_t& pos,
                  std::size_t& newlines, Emit&& emit) {
  for (;;) {
    const std::size_t begin = pos;
    while (pos < size && !kSpecial[static_cast<unsigned char>(data[pos])]) {
      ++pos;
    }
    std::size_t end = pos;
    if (pos < size && (data[pos] == '"' || data[pos] == '\r')) {
      bool quoted = false;
      for (; pos < size; ++pos) {
        const char c = data[pos];
        if (quoted) {
          if (c == '"') {
            if (pos + 1 < size && data[pos + 1] == '"') {
              data[end++] = '"';
              ++pos;
            } else {
              quoted = false;
            }
            continue;
          }
          if (c == '\n') ++newlines;
          data[end++] = c;
        } else if (c == '"') {
          quoted = true;
        } else if (c == ',' || c == '\n') {
          break;
        } else if (c != '\r') {
          data[end++] = c;
        }
      }
      if (quoted) return false;
    }
    emit(FieldRange{begin, end});
    if (pos == size) return true;
    if (data[pos++] == '\n') {
      ++newlines;
      return true;
    }
  }
}

[[noreturn]] void fail_at(std::size_t line, const std::string& what) {
  throw std::invalid_argument(
      "line " + format_int(static_cast<long long>(line)) + ": " + what);
}

/// Line ends in [p, end); memchr, because std::count goes a byte at a
/// time.
std::size_t count_line_ends(const char* p, const char* end) {
  std::size_t n = 0;
  while ((p = static_cast<const char*>(std::memchr(
              p, '\n', static_cast<std::size_t>(end - p)))) != nullptr) {
    ++n;
    ++p;
  }
  return n;
}

/// The rest of `in`, in one buffer sized up front when the stream can
/// say how much is left.
std::string read_all(std::istream& in) {
  std::string buf;
  std::streambuf* sb = in.rdbuf();
  if (sb == nullptr) return buf;
  const auto here = sb->pubseekoff(0, std::ios::cur, std::ios::in);
  const auto end = sb->pubseekoff(0, std::ios::end, std::ios::in);
  if (here != std::streampos(-1) && end != std::streampos(-1)) {
    sb->pubseekpos(here, std::ios::in);
    // One byte spare: a read that comes up short is the end of input.
    buf.reserve(static_cast<std::size_t>(end - here) + 1);
  }
  constexpr std::size_t kChunk = 64 * 1024;
  std::size_t have = 0;
  for (;;) {
    buf.resize(std::max(buf.capacity(), have + kChunk));
    const auto want = static_cast<std::streamsize>(buf.size() - have);
    const std::streamsize got = sb->sgetn(buf.data() + have, want);
    have += static_cast<std::size_t>(got);
    if (got < want) break;
  }
  buf.resize(have);
  return buf;
}

}  // namespace

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::string buf = line;
  std::vector<std::string> fields;
  std::size_t pos = 0;
  std::size_t newlines = 0;
  const bool closed = split_record(
      buf.data(), buf.size(), pos, newlines, [&](FieldRange f) {
        fields.emplace_back(buf.data() + f.begin, f.end - f.begin);
      });
  GPUVAR_REQUIRE_MSG(closed, "unterminated quoted CSV field");
  GPUVAR_REQUIRE_MSG(pos == buf.size(), "more than one CSV record");
  return fields;
}

CsvReader::CsvReader(std::istream& in) : buf_(read_all(in)) {
  if (buf_.empty()) throw std::invalid_argument("empty CSV input");
  if (buf_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("CSV input of 4 GiB or more");
  }
  char* data = buf_.data();
  const std::size_t size = buf_.size();
  std::size_t pos = 0;
  std::size_t newlines = 0;
  if (!split_record(data, size, pos, newlines, [&](FieldRange f) {
        columns_.emplace_back(data + f.begin, f.end - f.begin);
      })) {
    fail_at(1, "unterminated quoted CSV field");
  }
  std::size_t line = 1 + newlines;

  const std::size_t width = columns_.size();
  const std::size_t line_ends = count_line_ends(data + pos, data + size);
  fields_.reserve((line_ends + 1) * width);
  lines_.reserve(line_ends + 1);
  while (pos < size) {
    // Blank lines, CRLF ones included, hold no record.
    std::size_t text = pos;
    while (text < size && data[text] == '\r') ++text;
    if (text == size) break;
    if (data[text] == '\n') {
      pos = text + 1;
      ++line;
      continue;
    }
    const std::size_t first = fields_.size();
    newlines = 0;
    if (!split_record(data, size, pos, newlines, [&](FieldRange f) {
          fields_.push_back({static_cast<std::uint32_t>(f.begin),
                             static_cast<std::uint32_t>(f.end)});
        })) {
      fail_at(line, "unterminated quoted CSV field");
    }
    const std::size_t got = fields_.size() - first;
    if (got != width) {
      fail_at(line, "CSV row width does not match header (" +
                        format_int(static_cast<long long>(got)) +
                        " fields, header has " +
                        format_int(static_cast<long long>(width)) + ")");
    }
    lines_.push_back(static_cast<std::uint32_t>(line));
    line += newlines;
  }
}

std::optional<std::size_t> CsvReader::find_column(
    std::string_view name) const {
  const auto it = std::find(columns_.begin(), columns_.end(), name);
  if (it == columns_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - columns_.begin());
}

std::size_t CsvReader::column(std::string_view name) const {
  const auto c = find_column(name);
  if (!c) {
    throw std::invalid_argument("unknown CSV column: " + std::string(name));
  }
  return *c;
}

std::size_t CsvReader::line(std::size_t row) const {
  GPUVAR_REQUIRE(row < lines_.size());
  return lines_[row];
}

std::string_view CsvReader::field(std::size_t row, std::size_t col) const {
  GPUVAR_REQUIRE(row < lines_.size());
  GPUVAR_REQUIRE(col < columns_.size());
  const Span s = fields_[row * columns_.size() + col];
  return {buf_.data() + s.begin, s.end - s.begin};
}

void CsvReader::fail(std::size_t row, const std::string& what) const {
  fail_at(line(row), what);
}

double CsvReader::number(std::size_t row, std::size_t col) const {
  const std::string_view s = field(row, col);
  double v = 0.0;
  if (!parse_double(s, v)) {
    fail(row, "not a number '" + std::string(s) + "' in column " +
                  columns_[col]);
  }
  return v;
}

long long CsvReader::integer(std::size_t row, std::size_t col) const {
  const std::string_view s = field(row, col);
  long long v = 0;
  if (!parse_int(s, v)) {
    fail(row, "not an integer '" + std::string(s) + "' in column " +
                  columns_[col]);
  }
  return v;
}

}  // namespace gpuvar
