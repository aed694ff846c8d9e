#include "common/csv_reader.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/numfmt.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"

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

CsvReader::CsvReader(std::istream& in, ThreadPool* pool)
    : buf_(read_all(in)) {
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
  const std::size_t first_line = 1 + newlines;
  const std::size_t width = columns_.size();
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::global();

  // The records after the header are split in blocks of kBlockBytes on
  // the pool. A '\n' ends a record exactly where the count of quote
  // bytes before it is even (split_record toggles its quoted state on
  // every quote, a doubled one twice, and the header ends at such a
  // '\n'). So a first pass counts each block's quotes and line ends and
  // notes its first '\n' after an even and after an odd count of its own
  // quotes; a prefix sum then gives every block the first record that
  // starts in it and that record's line. Each block parses its records
  // into its own range of slots, one slot per line end, and the slots
  // are closed up in block order at the end.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  struct Block {
    std::size_t quotes = 0;
    std::size_t line_ends = 0;
    /// Per parity of the block's own quote count: the first '\n' seen
    /// at that parity, and the line ends before it in the block.
    std::array<std::size_t, 2> first_end{kNone, kNone};
    std::array<std::size_t, 2> ends_before{0, 0};
    /// Offset of the block's first record, and line ends before it
    /// after the header: the record's line is first_line + this, and
    /// its slot is this.
    std::size_t start = 0;
    std::size_t slot = 0;
    std::size_t records = 0;
  };
  const std::size_t blocks = (size - pos + kBlockBytes - 1) / kBlockBytes;
  const auto block_begin = [&](std::size_t b) {
    return std::min(size, pos + b * kBlockBytes);
  };
  std::vector<Block> block(blocks);
  workers.parallel_for(blocks, [&](std::size_t b) {
    // Counted in locals: the blocks' records share cache lines.
    Block blk;
    const std::size_t end = block_begin(b + 1);
    for (std::size_t i = block_begin(b); i < end; ++i) {
      if (data[i] == '"') {
        ++blk.quotes;
      } else if (data[i] == '\n') {
        const std::size_t parity = blk.quotes % 2;
        if (blk.first_end[parity] == kNone) {
          blk.first_end[parity] = i;
          blk.ends_before[parity] = blk.line_ends;
        }
        ++blk.line_ends;
      }
    }
    block[b] = blk;
  });
  std::size_t line_ends = 0;
  std::size_t quotes = 0;
  for (Block& blk : block) {
    const std::size_t parity = quotes % 2;
    if (&blk == block.data()) {
      blk.start = pos;
    } else if (blk.first_end[parity] != kNone) {
      blk.start = blk.first_end[parity] + 1;
      blk.slot = line_ends + blk.ends_before[parity] + 1;
    } else {
      blk.start = kNone;  // no record starts here: see below
    }
    line_ends += blk.line_ends;
    quotes += blk.quotes;
  }
  // A block no record starts in (a quoted run spans it) ends where the
  // next one starts, so it parses nothing.
  for (std::size_t b = blocks, next = size, next_slot = line_ends;
       b-- > 0;) {
    if (block[b].start == kNone) {
      block[b].start = next;
      block[b].slot = next_slot;
    }
    next = block[b].start;
    next_slot = block[b].slot;
  }

  // One slot per line end, plus one for a last record without one. Left
  // uninitialized: a slot no record takes (a blank line, a record's
  // second line) is never touched, so costs no memory.
  fields_ = std::make_unique_for_overwrite<Span[]>((line_ends + 1) * width);
  lines_ = std::make_unique_for_overwrite<std::uint32_t[]>(line_ends + 1);
  workers.parallel_for(blocks, [&](std::size_t b) {
    Block& blk = block[b];
    const std::size_t end = b + 1 < blocks ? block[b + 1].start : size;
    std::size_t at = blk.start;
    std::size_t line = first_line + blk.slot;
    std::size_t slot = blk.slot;
    while (at < end) {
      // Blank lines, CRLF ones included, hold no record.
      std::size_t text = at;
      while (text < size && data[text] == '\r') ++text;
      if (text == size) break;
      if (data[text] == '\n') {
        at = text + 1;
        ++line;
        continue;
      }
      Span* const out = &fields_[slot * width];
      std::size_t got = 0;
      std::size_t record_newlines = 0;
      if (!split_record(data, size, at, record_newlines, [&](FieldRange f) {
            if (got < width) {
              out[got] = {static_cast<std::uint32_t>(f.begin),
                          static_cast<std::uint32_t>(f.end)};
            }
            ++got;
          })) {
        fail_at(line, "unterminated quoted CSV field");
      }
      if (got != width) {
        fail_at(line, "CSV row width does not match header (" +
                          format_int(static_cast<long long>(got)) +
                          " fields, header has " +
                          format_int(static_cast<long long>(width)) + ")");
      }
      lines_[slot++] = static_cast<std::uint32_t>(line);
      line += record_newlines;
    }
    blk.records = slot - blk.slot;
  });
  for (const Block& blk : block) {
    if (blk.slot != rows_) {
      const Span* const from = &fields_[blk.slot * width];
      std::copy(from, from + blk.records * width, &fields_[rows_ * width]);
      std::copy(&lines_[blk.slot], &lines_[blk.slot] + blk.records,
                &lines_[rows_]);
    }
    rows_ += blk.records;
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
  GPUVAR_REQUIRE(row < rows_);
  return lines_[row];
}

std::string_view CsvReader::field(std::size_t row, std::size_t col) const {
  GPUVAR_REQUIRE(row < rows_);
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
  // from_chars accepts "nan" and "inf"; no metric is either, and every
  // analysis downstream assumes ordered, finite values.
  if (!std::isfinite(v)) {
    fail(row, "not a finite number '" + std::string(s) + "' in column " +
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
