#include "common/csv_reader.hpp"

#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpuvar {
namespace {

TEST(ParseCsvLine, SplitsPlainFields) {
  const auto f = parse_csv_line("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(ParseCsvLine, HandlesEmptyFields) {
  const auto f = parse_csv_line("a,,c,");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(ParseCsvLine, QuotedCommasAndQuotes) {
  const auto f = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\"");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
}

TEST(ParseCsvLine, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"abc"), std::invalid_argument);
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

}  // namespace
}  // namespace gpuvar
