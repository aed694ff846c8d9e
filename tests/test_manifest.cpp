// Campaign manifest parser (telemetry/manifest.hpp): which lines it
// accepts, which it skips, and that the last entry for a bucket wins.
// The field splitter is checked against the vector-of-strings parser it
// replaced, kept below as the reference.
#include "telemetry/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/numfmt.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar {
namespace {

namespace fs = std::filesystem;

/// Splits on single spaces: one string per field.
std::vector<std::string> reference_split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t sp = line.find(' ', start);
    if (sp == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, sp - start));
    start = sp + 1;
  }
  return out;
}

/// The line-at-a-time parser read_campaign_manifest replaced.
CampaignManifest reference_read(const fs::path& path) {
  CampaignManifest m;
  std::ifstream in(path);
  if (!in.good()) return m;
  m.exists = true;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      if (line != kCampaignManifestMagic) {
        throw std::runtime_error(path.string() +
                                 ": not a gpuvar campaign manifest");
      }
      first = false;
      continue;
    }
    const auto f = reference_split(line);
    if (f.size() == 2 && f[0] == "config") {
      parse_hex(f[1], m.config_hash);
    } else if (f.size() == 1 && f[0] == "done") {
      m.done = true;
    } else if (f.size() == 8 && f[0] == "bucket" && f[2] == "rows" &&
               f[4] == "payload" && f[6] == "hash") {
      long long idx = 0;
      long long rows = 0;
      long long payload = 0;
      std::uint64_t hash = 0;
      if (parse_int(f[1], idx) && parse_int(f[3], rows) &&
          parse_int(f[5], payload) && parse_hex(f[7], hash) && idx >= 0 &&
          rows >= 0 && payload >= 0) {
        FrameShardInfo e;
        e.bucket_index = static_cast<std::uint64_t>(idx);
        e.rows = static_cast<std::uint64_t>(rows);
        e.payload_bytes = static_cast<std::uint64_t>(payload);
        e.payload_hash = hash;
        m.entries[e.bucket_index] = e;
      }
    }
  }
  if (first) m.exists = false;
  return m;
}

void expect_same(const CampaignManifest& got, const CampaignManifest& want,
                 const std::string& label) {
  EXPECT_EQ(got.exists, want.exists) << label;
  EXPECT_EQ(got.config_hash, want.config_hash) << label;
  EXPECT_EQ(got.done, want.done) << label;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  auto w = want.entries.begin();
  for (const auto& [idx, e] : got.entries) {
    EXPECT_EQ(idx, w->first) << label;
    EXPECT_TRUE(shard_matches_entry(e, w->second)) << label << " bucket "
                                                   << idx;
    ++w;
  }
}

class CampaignManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::path(::testing::TempDir()) /
            ("gpuvar_manifest_" + std::to_string(::getpid()) + ".txt");
  }
  void TearDown() override { fs::remove(path_); }

  /// Writes `text` as the manifest and parses it with both parsers.
  std::pair<CampaignManifest, CampaignManifest> parse_both(
      const std::string& text) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << text;
    }
    return {read_campaign_manifest(path_), reference_read(path_)};
  }

  fs::path path_;
};

const std::string kMagic = std::string(kCampaignManifestMagic) + "\n";

TEST_F(CampaignManifestTest, MatchesTheReferenceParserLineForLine) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty file", ""},
      {"magic only", kMagic},
      {"magic without newline", kCampaignManifestMagic},
      {"complete", kMagic + "config 1f2e\n"
                   "bucket 0 rows 4 payload 100 hash ab\n"
                   "bucket 1 rows 6 payload 150 hash cd\n"
                   "done\n"},
      {"double space", kMagic + "bucket  0 rows 4 payload 100 hash ab\n"
                       "bucket 1 rows 4  payload 100 hash ab\n"
                       "config  7\n"
                       "bucket 2 rows 4 payload 100 hash ab\n"},
      {"trailing space", kMagic + "bucket 0 rows 4 payload 100 hash ab \n"
                         "config 7 \n"
                         "done \n"
                         "bucket 1 rows 4 payload 100 hash ab\n"},
      {"leading space", kMagic + " bucket 0 rows 4 payload 100 hash ab\n"
                        " done\n"},
      {"seven fields", kMagic + "bucket 0 rows 4 payload 100 hash\n"
                       "bucket 1 rows 4 payload 100 hash ab\n"},
      {"nine fields", kMagic + "bucket 0 rows 4 payload 100 hash ab ab\n"
                      "bucket 1 rows 4 payload 100 hash ab\n"},
      {"torn tail", kMagic + "config 3\n"
                    "bucket 0 rows 4 payload 100 hash ab\n"
                    "bucket 1 rows 4 payl"},
      {"torn tail at a field break", kMagic +
                                         "bucket 0 rows 4 payload 100 hash "
                                         "ab\nbucket 1 rows 4 payload 100 "},
      {"repeated bucket", kMagic + "bucket 3 rows 4 payload 100 hash ab\n"
                          "bucket 5 rows 4 payload 100 hash ab\n"
                          "bucket 3 rows 9 payload 300 hash ef\n"
                          "bucket 5 rows 1 payload 10 hash 1\n"
                          "bucket 5 rows 2 payload 20 hash 2\n"},
      {"out of order", kMagic + "bucket 7 rows 4 payload 100 hash ab\n"
                       "bucket 2 rows 4 payload 100 hash ab\n"
                       "bucket 9 rows 4 payload 100 hash ab\n"
                       "bucket 0 rows 4 payload 100 hash ab\n"},
      {"bad numbers", kMagic + "bucket -1 rows 4 payload 100 hash ab\n"
                      "bucket 1 rows -4 payload 100 hash ab\n"
                      "bucket 2 rows 4 payload 1x0 hash ab\n"
                      "bucket 3 rows 4 payload 100 hash xyz\n"
                      "bucket +4 rows 4 payload 100 hash ab\n"
                      "bucket 5 rows 4 payload 100 hash -ab\n"
                      "bucket 6 rows 4 payload 100 hash ab\n"},
      {"bad config keeps the last good one", kMagic + "config 10\n"
                                             "config zz\n"
                                             "config \n"},
      {"wrong keywords", kMagic + "bucket 0 row 4 payload 100 hash ab\n"
                         "Bucket 1 rows 4 payload 100 hash ab\n"
                         "bucket 2 rows 4 payload 100 Hash ab\n"
                         "DONE\n"
                         "configs 5\n"},
      {"blank and CR lines", kMagic + "\n\ndone\r\n"
                             "bucket 0 rows 4 payload 100 hash ab\r\n"
                             "bucket 1 rows 4 payload 100 hash ab\n\n"},
      {"done before entries", kMagic + "done\n"
                              "bucket 0 rows 4 payload 100 hash ab\n"},
  };
  for (const auto& [label, text] : cases) {
    const auto [got, want] = parse_both(text);
    expect_same(got, want, label);
  }

  // Spot checks of what the table pins, so a shared bug in both
  // parsers would still show.
  const CampaignManifest complete = parse_both(cases[3].second).first;
  EXPECT_TRUE(complete.exists && complete.done);
  EXPECT_EQ(complete.config_hash, 0x1f2eu);
  EXPECT_EQ(complete.entries.size(), 2u);
  const CampaignManifest repeated = parse_both(cases[11].second).first;
  ASSERT_EQ(repeated.entries.size(), 2u);
  EXPECT_EQ(repeated.entries.at(3).rows, 9u);
  EXPECT_EQ(repeated.entries.at(5).rows, 2u);
  EXPECT_EQ(repeated.entries.at(5).payload_hash, 2u);
  const CampaignManifest bad = parse_both(cases[13].second).first;
  ASSERT_EQ(bad.entries.size(), 2u);
  EXPECT_EQ(bad.entries.count(4), 1u);
  EXPECT_EQ(bad.entries.count(6), 1u);
  EXPECT_FALSE(parse_both(cases[0].second).first.exists);
  EXPECT_TRUE(parse_both(cases[1].second).first.exists);
}

TEST_F(CampaignManifestTest, ForeignFirstLineIsRefusedByBoth) {
  for (const std::string text :
       {std::string("\n") + kMagic, std::string("gpuvar-campaign-manifest v2\n"),
        std::string(kCampaignManifestMagic) + " \n", std::string("done\n")}) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << text;
    }
    EXPECT_THROW((void)read_campaign_manifest(path_), std::runtime_error)
        << text;
    EXPECT_THROW((void)reference_read(path_), std::runtime_error) << text;
  }
}

TEST_F(CampaignManifestTest, MissingFileIsAFreshCampaign) {
  fs::remove(path_);
  EXPECT_FALSE(read_campaign_manifest(path_).exists);
}

TEST(CampaignShardFileName, PadsToSixDigitsAndAppendsInPlace) {
  EXPECT_EQ(campaign_shard_file_name(0), "bucket-000000.shard");
  EXPECT_EQ(campaign_shard_file_name(42), "bucket-000042.shard");
  EXPECT_EQ(campaign_shard_file_name(999999), "bucket-999999.shard");
  EXPECT_EQ(campaign_shard_file_name(1234567), "bucket-1234567.shard");
  std::string path = "store/";
  append_campaign_shard_file_name(path, 5);
  EXPECT_EQ(path, "store/bucket-000005.shard");
}

}  // namespace
}  // namespace gpuvar
