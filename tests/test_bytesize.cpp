// parse_byte_size: the shared grammar behind every byte-budget flag
// (today --shard-budget). The overflow tests moved here from
// test_cli.cpp when the parser was hoisted into src/common.
#include "common/bytesize.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gpuvar {
namespace {

TEST(ByteSize, ParsesPlainBytesAndBinarySuffixes) {
  EXPECT_EQ(parse_byte_size("0", "--x"), 0u);
  EXPECT_EQ(parse_byte_size("123", "--x"), 123u);
  EXPECT_EQ(parse_byte_size("4K", "--x"), 4096u);
  EXPECT_EQ(parse_byte_size("4k", "--x"), 4096u);
  EXPECT_EQ(parse_byte_size("2M", "--x"), 2ull << 20);
  EXPECT_EQ(parse_byte_size("3G", "--x"), 3ull << 30);
}

TEST(ByteSize, UnlimitedSentinel) {
  EXPECT_EQ(parse_byte_size("unlimited", "--x"), kUnlimitedBytes);
  // The sentinel compares above any real budget, so `bytes <= budget`
  // needs no special case.
  EXPECT_GT(kUnlimitedBytes, 1ull << 62);
}

TEST(ByteSize, RejectsBadSyntaxNamingTheFlag) {
  for (const char* bad : {"", "4X", "-1", "1.5G", "G", "unlimitedd"}) {
    try {
      parse_byte_size(bad, "--shard-budget");
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad --shard-budget"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ByteSize, OverflowFailsLoudly) {
  // A value that wraps uint64 when scaled must be an error, never a
  // silently tiny (or accidentally unlimited) budget.
  for (const char* bad : {"99999999999G", "18014398509481984K"}) {
    try {
      parse_byte_size(bad, "--shard-budget");
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
          << e.what();
    }
  }
  // The largest representable products still parse.
  EXPECT_EQ(parse_byte_size("9223372036854775807", "--x"),
            9223372036854775807ull);
  EXPECT_EQ(parse_byte_size("17179869183G", "--x"),
            17179869183ull << 30);
}

}  // namespace
}  // namespace gpuvar
