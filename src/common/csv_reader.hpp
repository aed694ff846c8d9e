// Minimal CSV reader (RFC 4180 quoting), the inverse of CsvWriter — lets
// the analysis pipeline consume measurements produced elsewhere (a real
// NVML collector, the paper artifact's outputs, a previous campaign).
//
// The input is held once: the constructor reads the whole stream into
// one buffer and keeps each field as an offset range into it. A quoted
// field that needs unescaping (a doubled quote, a quote in mid-field, a
// stray CR) is rewritten in place, which never lengthens it, so no field
// is copied out. Every error names the 1-based line its record starts
// on ("line 17: ...").
//
// The records after the header are split on a thread pool, in blocks of
// kBlockBytes. A '\n' ends a record exactly where an even number of
// quote bytes precede it, so one counting pass and a prefix sum give
// each block its first record and that record's line, and quoted
// newlines, CRLF and blank lines split as in one serial pass. Each block
// throws at its first bad record, and the pool rethrows the lowest
// block's error, so the error is the one at the lowest bad line whatever
// the pool size.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpuvar {

class ThreadPool;

class CsvReader {
 public:
  /// Parses the whole stream; the first record is the header. Quoted
  /// fields may span lines; CRLF line ends and blank lines are skipped.
  /// Throws std::invalid_argument on malformed input (empty input,
  /// unterminated quotes, a row wider or narrower than the header).
  /// Splits on `pool`, or on ThreadPool::global() when it is null.
  explicit CsvReader(std::istream& in, ThreadPool* pool = nullptr);

  /// Input bytes a pool task splits at once (exposed so that tests can
  /// place records on both sides of the block boundaries).
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t rows() const { return rows_; }

  /// Index of the first column called `name`, if any.
  std::optional<std::size_t> find_column(std::string_view name) const;
  /// Index of the first column called `name`; throws on an unknown one.
  std::size_t column(std::string_view name) const;

  /// 1-based input line on which row `row`'s record starts.
  std::size_t line(std::size_t row) const;

  /// Field by row and column; the view lives as long as the reader.
  /// Throws on an out-of-range row or column, or an unknown column name.
  std::string_view field(std::size_t row, std::size_t col) const;
  std::string_view field(std::size_t row, std::string_view name) const {
    return field(row, column(name));
  }

  /// Typed accessors; throw std::invalid_argument naming the line, the
  /// text and the column on parse failure. number() also rejects a NaN
  /// or an infinity ("nan", "inf", "infinity" in any sign or case).
  double number(std::size_t row, std::size_t col) const;
  long long integer(std::size_t row, std::size_t col) const;
  double number(std::size_t row, std::string_view name) const {
    return number(row, column(name));
  }
  long long integer(std::size_t row, std::string_view name) const {
    return integer(row, column(name));
  }

  /// Throws std::invalid_argument("line N: " + what) for row `row`.
  [[noreturn]] void fail(std::size_t row, const std::string& what) const;

 private:
  /// A field's bytes: buf_[begin, end).
  struct Span {
    std::uint32_t begin;
    std::uint32_t end;
  };

  std::string buf_;
  std::vector<std::string> columns_;
  std::unique_ptr<Span[]> fields_;  ///< row-major, columns_.size() a row
  std::unique_ptr<std::uint32_t[]> lines_;  ///< per row, its first line
  std::size_t rows_ = 0;
};

}  // namespace gpuvar
