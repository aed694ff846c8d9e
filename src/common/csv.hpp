// Minimal CSV writer for telemetry and experiment exports.
//
// Quotes fields per RFC 4180 only when needed (comma, quote, newline).
//
// Doubles are written as the shortest string that parses back to the
// same bits (format_double), so a CSV round trip loses nothing.
//
// The writer is buffered: fields append into an internal byte buffer
// (numbers through std::to_chars, escaping done in place — no per-field
// or per-row std::string temporaries), and whole chunks of rows go to
// the ostream once the buffer passes the flush threshold. Campaign
// exports are millions of rows; one stream write per ~16 KiB beats one
// operator<< per field by a wide margin. Call flush() — or let the
// destructor do it — before reading the underlying stream.
//
// A writer can also format into a caller's string instead of a stream,
// so that blocks of rows can be formatted apart (on a thread pool) by
// the same add()/end_row() code and written in order by the caller.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gpuvar {

class CsvWriter {
 public:
  /// Writes to the given stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}
  /// Appends rows of `columns` fields to `sink` and never to a stream;
  /// the header is the caller's to write. `sink` must outlive the
  /// writer.
  CsvWriter(std::string& sink, std::size_t columns)
      : buf_(&sink), header_written_(true), column_count_(columns) {}
  /// Flushes any buffered rows.
  ~CsvWriter() { flush(); }

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes the header row. Must be called at most once, before any row.
  void header(const std::vector<std::string>& columns);

  /// Begins a row; append fields with add(), finish with end_row().
  CsvWriter& add(std::string_view field);
  CsvWriter& add(double value);
  CsvWriter& add(long long value);
  CsvWriter& add(int value) { return add(static_cast<long long>(value)); }
  CsvWriter& add(std::size_t value) {
    return add(static_cast<long long>(value));
  }
  void end_row();

  /// Writes a full row in one call.
  void row(const std::vector<std::string>& fields);

  /// Pushes buffered complete rows to the stream (rows only ever reach
  /// the stream whole — end_row flushes automatically past the chunk
  /// threshold, so callers normally never need this before the end).
  /// A writer over a sink string has nothing to flush.
  void flush();

  std::size_t rows_written() const { return rows_; }

 private:
  /// Buffered bytes before end_row hands a chunk to the stream.
  static constexpr std::size_t kFlushBytes = 16 * 1024;

  void begin_field();

  std::ostream* out_ = nullptr;  ///< null: rows stay in *buf_
  std::string own_;
  std::string* buf_ = &own_;
  bool row_started_ = false;
  bool header_written_ = false;
  std::size_t column_count_ = 0;   // 0 until the header is known
  std::size_t fields_in_row_ = 0;
  std::size_t rows_ = 0;
};

/// Escape a single CSV field (exposed for testing).
std::string csv_escape(std::string_view field);

}  // namespace gpuvar
