#include "common/csv.hpp"

#include "common/numfmt.hpp"
#include "common/require.hpp"

namespace gpuvar {

std::string csv_escape(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  GPUVAR_REQUIRE_MSG(!header_written_, "header already written");
  GPUVAR_REQUIRE_MSG(rows_ == 0, "header must precede rows");
  GPUVAR_REQUIRE(!columns.empty());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) buf_->push_back(',');
    *buf_ += csv_escape(columns[i]);
  }
  buf_->push_back('\n');
  header_written_ = true;
  column_count_ = columns.size();
}

void CsvWriter::begin_field() {
  if (fields_in_row_) buf_->push_back(',');
  ++fields_in_row_;
  row_started_ = true;
}

CsvWriter& CsvWriter::add(std::string_view field) {
  begin_field();
  // Escape straight into the buffer (csv_escape would allocate a
  // temporary per field, which the frame export pays per cell).
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    buf_->append(field);
  } else {
    buf_->push_back('"');
    for (char c : field) {
      if (c == '"') buf_->push_back('"');
      buf_->push_back(c);
    }
    buf_->push_back('"');
  }
  return *this;
}

CsvWriter& CsvWriter::add(double value) {
  // std::to_chars, not printf: %g consults LC_NUMERIC, so a European
  // locale would turn "3.14" into "3,14" and corrupt the CSV.
  begin_field();
  append_double(*buf_, value);
  return *this;
}

CsvWriter& CsvWriter::add(long long value) {
  begin_field();
  append_int(*buf_, value);
  return *this;
}

void CsvWriter::end_row() {
  GPUVAR_REQUIRE_MSG(row_started_, "end_row without fields");
  if (column_count_ != 0) {
    GPUVAR_REQUIRE_MSG(fields_in_row_ == column_count_,
                       "row width does not match header");
  }
  buf_->push_back('\n');
  row_started_ = false;
  fields_in_row_ = 0;
  ++rows_;
  if (buf_->size() >= kFlushBytes) flush();
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  GPUVAR_REQUIRE(!fields.empty());
  for (const auto& f : fields) add(f);
  end_row();
}

void CsvWriter::flush() {
  if (out_ == nullptr || buf_->empty()) return;
  out_->write(buf_->data(), static_cast<std::streamsize>(buf_->size()));
  buf_->clear();
}

}  // namespace gpuvar
