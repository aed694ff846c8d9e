#include "common/csv_reader.hpp"

#include "common/csv.hpp"
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpuvar {
namespace {

/// The message of the std::invalid_argument that parsing `text` throws,
/// or "" if it parses.
std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    CsvReader csv(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// `line` read as the header of a one-record CSV.
std::vector<std::string> header_of(const std::string& line) {
  std::istringstream in(line);
  return CsvReader(in).columns();
}

TEST(ParseCsvLine, SplitsPlainFields) {
  const auto f = header_of("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(ParseCsvLine, HandlesEmptyFields) {
  const auto f = header_of("a,,c,");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(ParseCsvLine, QuotedCommasAndQuotes) {
  const auto f = header_of("\"a,b\",\"say \"\"hi\"\"\"");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
}

TEST(ParseCsvLine, UnterminatedQuoteThrows) {
  EXPECT_EQ(parse_error("\"abc"), "line 1: unterminated quoted CSV field");
}

TEST(CsvReader, ReadsHeaderAndRows) {
  std::istringstream in("x,y\n1,foo\n2,bar\n");
  CsvReader csv(in);
  EXPECT_EQ(csv.columns(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(csv.rows(), 2u);
  EXPECT_EQ(csv.field(0, "y"), "foo");
  EXPECT_DOUBLE_EQ(csv.number(1, "x"), 2.0);
  EXPECT_EQ(csv.integer(1, "x"), 2);
}

TEST(CsvReader, ToleratesCrlfAndTrailingBlankLines) {
  std::istringstream in("a,b\r\n1,2\r\n\n");
  CsvReader csv(in);
  EXPECT_EQ(csv.rows(), 1u);
  EXPECT_EQ(csv.field(0, "b"), "2");
}

TEST(CsvReader, QuotedFieldSpanningLines) {
  std::istringstream in("a,b\n\"multi\nline\",2\n");
  CsvReader csv(in);
  EXPECT_EQ(csv.rows(), 1u);
  EXPECT_EQ(csv.field(0, "a"), "multi\nline");
}

TEST(CsvReader, RejectsWidthMismatch) {
  std::istringstream in("a,b\n1,2,3\n");
  EXPECT_THROW(CsvReader reader(in), std::invalid_argument);
}

TEST(CsvReader, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(CsvReader reader(in), std::invalid_argument);
}

TEST(CsvReader, UnknownColumnAndBadNumbersThrow) {
  std::istringstream in("a\nnope\n");
  CsvReader csv(in);
  EXPECT_THROW(csv.field(0, "b"), std::invalid_argument);
  EXPECT_THROW(csv.number(0, "a"), std::invalid_argument);
  EXPECT_THROW(csv.integer(0, "a"), std::invalid_argument);
  EXPECT_THROW(csv.field(1, "a"), std::invalid_argument);
  EXPECT_EQ(csv.find_column("a"), 0u);
  EXPECT_FALSE(csv.find_column("b").has_value());
}

TEST(CsvReader, RoundTripsWriterOutput) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"name", "value"});
  writer.add("weird,\"name\"").add(3.25);
  writer.end_row();
  writer.flush();
  std::istringstream in(out.str());
  CsvReader csv(in);
  EXPECT_EQ(csv.field(0, "name"), "weird,\"name\"");
  EXPECT_DOUBLE_EQ(csv.number(0, "value"), 3.25);
}

TEST(CsvReader, QuoteInMidFieldOpensAQuotedRun) {
  // A quote anywhere opens or closes a quoted run, so the comma between
  // the two quotes is field text.
  std::istringstream in("x,y\n1,a\"b,c\"d\n");
  CsvReader csv(in);
  ASSERT_EQ(csv.rows(), 1u);
  EXPECT_EQ(csv.field(0, "y"), "ab,cd");
  // Unbalanced, it runs to the end of the input.
  EXPECT_EQ(parse_error("x,y\n1,a\"b\n2,c\n"),
            "line 2: unterminated quoted CSV field");
}

TEST(CsvReader, LastRecordWithoutNewline) {
  std::istringstream in("a,b\n1,2\n3,\"x\"\"y\"");
  CsvReader csv(in);
  ASSERT_EQ(csv.rows(), 2u);
  EXPECT_EQ(csv.field(1, "a"), "3");
  EXPECT_EQ(csv.field(1, "b"), "x\"y");
  EXPECT_EQ(csv.line(1), 3u);
}

TEST(CsvReader, ShortRowNamesItsLine) {
  EXPECT_EQ(parse_error("a,b\n1,2\n\n\"multi\nline\",2\n3\n"),
            "line 6: CSV row width does not match header (1 fields, "
            "header has 2)");
}

TEST(CsvReader, UnterminatedQuoteAtEofNamesItsLine) {
  EXPECT_EQ(parse_error("a,b\r\n1,2\r\n3,\"open\r\n"),
            "line 3: unterminated quoted CSV field");
  EXPECT_EQ(parse_error("\"a,b\n"), "line 1: unterminated quoted CSV field");
}

TEST(CsvReader, HeaderOnlyFileHasNoRows) {
  for (const char* text : {"a,b\n", "a,b", "a,b\r\n\r\n"}) {
    std::istringstream in(text);
    CsvReader csv(in);
    EXPECT_EQ(csv.columns(), (std::vector<std::string>{"a", "b"})) << text;
    EXPECT_EQ(csv.rows(), 0u) << text;
  }
}

TEST(CsvReader, BadNumbersNameLineAndColumn) {
  std::istringstream in("a,b\n1,2\n\"x\ny\",abc\n");
  CsvReader csv(in);
  ASSERT_EQ(csv.rows(), 2u);
  EXPECT_EQ(csv.column("b"), 1u);
  EXPECT_FALSE(csv.find_column("c").has_value());
  try {
    csv.number(1, "b");
    FAIL() << "abc parsed as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "line 3: not a number 'abc' in column b");
  }
  try {
    csv.integer(1, 0);
    FAIL() << "x\\ny parsed as an integer";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "line 3: not an integer 'x\ny' in column a");
  }
}

/// A CSV spanning many reader blocks: most of its bytes sit in quoted
/// fields holding commas, doubled quotes, '\n' and CRLF, so most block
/// boundaries fall inside one; records end in '\n' or CRLF, and blank
/// lines (CRLF ones too) come between some of them. Keeps what each
/// record must read back as.
struct BlockCsv {
  std::string text;
  std::vector<std::array<std::string, 3>> fields;  ///< unescaped
  std::vector<std::size_t> lines;   ///< the line each record starts on
  std::vector<std::size_t> starts;  ///< the byte each record starts at
  std::size_t end_line = 0;         ///< the line after the last record
};

BlockCsv block_csv() {
  BlockCsv csv;
  csv.text = "id,text,n\r\n";
  std::size_t line = 2;
  for (std::size_t i = 0; csv.text.size() < 10 * CsvReader::kBlockBytes;
       ++i) {
    if (i % 7 == 3) {
      csv.text += i % 2 != 0 ? "\r\n" : "\n";
      ++line;
    }
    const std::string id = std::to_string(i);
    // Padding of every length from 0 to 36 moves the boundaries about.
    const std::string value =
        i % 5 == 0 ? "plain" + id
                   : "one, \"two\"\nthree\r\nfour " + id +
                         std::string(i % 37, 'x') + (i % 5 == 4 ? "\n" : "");
    std::string raw = "\"";
    for (const char c : value) {
      if (c == '"') raw += '"';
      raw += c;
    }
    raw += '"';
    if (i % 5 == 0) raw = value;
    const std::string n = std::to_string(3 * i);
    csv.fields.push_back({id, value, n});
    csv.lines.push_back(line);
    csv.starts.push_back(csv.text.size());
    const std::string record =
        id + "," + raw + "," + n + (i % 3 == 0 ? "\r\n" : "\n");
    line += static_cast<std::size_t>(
        std::count(record.begin(), record.end(), '\n'));
    csv.text += record;
  }
  csv.end_line = line;
  return csv;
}

/// The first record of `want` that `text` reads back otherwise, or "".
std::string first_mismatch(const std::string& text, const BlockCsv& want,
                           ThreadPool& pool) {
  std::istringstream in(text);
  const CsvReader csv(in, &pool);
  if (csv.columns() != std::vector<std::string>{"id", "text", "n"}) {
    return "columns";
  }
  if (csv.rows() != want.fields.size()) {
    return "rows " + std::to_string(csv.rows());
  }
  for (std::size_t r = 0; r < csv.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (csv.field(r, c) != want.fields[r][c]) {
        return "row " + std::to_string(r) + " column " + std::to_string(c);
      }
    }
    if (csv.line(r) != want.lines[r]) return "line of row " + std::to_string(r);
  }
  return "";
}

TEST(CsvReader, BlockBoundariesSplitAsOnePassAtEveryPoolSize) {
  const BlockCsv want = block_csv();
  ASSERT_GT(want.text.size(), 8 * CsvReader::kBlockBytes);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(first_mismatch(want.text, want, pool), "")
        << threads << " threads";
  }
}

/// The error reading `text` on `pool` throws, or "" if it parses.
std::string parse_error_on(const std::string& text, ThreadPool& pool) {
  std::istringstream in(text);
  try {
    CsvReader csv(in, &pool);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CsvReader, LowestBadLineAtEveryPoolSize) {
  const BlockCsv csv = block_csv();
  const std::size_t late = csv.fields.size() * 9 / 10;
  const std::size_t early = csv.fields.size() / 10;
  const auto insert = [&](std::string text, std::size_t record,
                          const std::string& bad) {
    return text.insert(csv.starts[record], bad);
  };
  const auto width = [](std::size_t line, int got) {
    return "line " + std::to_string(line) +
           ": CSV row width does not match header (" + std::to_string(got) +
           " fields, header has 3)";
  };
  const std::string open_at_eof = "9,\"open\r\nstill, open\n";
  const std::string unterminated =
      "line " + std::to_string(csv.end_line) +
      ": unterminated quoted CSV field";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {insert(csv.text, late, "1,2,3,\"4\n\"\n"), width(csv.lines[late], 4)},
      {csv.text + open_at_eof, unterminated},
      // Two defects in two blocks: the lower line wins, whatever kind.
      {insert(insert(csv.text, late, "1,2,3,4\n"), early, "1,\"2\r\n\"\n"),
       width(csv.lines[early], 2)},
      {insert(csv.text, early, "1,2,3,4\r\n") + open_at_eof,
       width(csv.lines[early], 4)},
  };
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (std::size_t k = 0; k < cases.size(); ++k) {
      EXPECT_EQ(parse_error_on(cases[k].first, pool), cases[k].second)
          << "case " << k << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gpuvar
