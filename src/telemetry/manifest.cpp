#include "telemetry/manifest.hpp"

#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/numfmt.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar {

namespace {

namespace fs = std::filesystem;

/// Splits on single spaces (manifest fields never contain spaces).
std::vector<std::string> split_fields(const std::string& line) {
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

}  // namespace

std::string campaign_shard_file_name(std::size_t bucket_index) {
  std::string digits = format_int(static_cast<long long>(bucket_index));
  while (digits.size() < 6) digits.insert(digits.begin(), '0');
  return "bucket-" + digits + ".shard";
}

CampaignManifest read_campaign_manifest(const fs::path& path) {
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
    const auto f = split_fields(line);
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
    // Anything else: a torn line. Skip it.
  }
  if (first) m.exists = false;  // empty file == fresh campaign
  return m;
}

bool shard_matches_entry(const FrameShardInfo& shard,
                         const FrameShardInfo& entry) {
  return shard.bucket_index == entry.bucket_index &&
         shard.rows == entry.rows &&
         shard.payload_bytes == entry.payload_bytes &&
         shard.payload_hash == entry.payload_hash;
}

std::string campaign_manifest_entry_line(const FrameShardInfo& info) {
  return "bucket " + format_int(static_cast<long long>(info.bucket_index)) +
         " rows " + format_int(static_cast<long long>(info.rows)) +
         " payload " + format_int(static_cast<long long>(info.payload_bytes)) +
         " hash " + format_hex(info.payload_hash);
}

void rewrite_campaign_manifest(
    const fs::path& dir, std::uint64_t config_hash,
    const std::map<std::uint64_t, FrameShardInfo>& entries, bool done) {
  const fs::path tmp = dir / (std::string(kCampaignManifestName) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) {
      throw std::runtime_error("cannot write " + tmp.string());
    }
    out << kCampaignManifestMagic << "\nconfig " << format_hex(config_hash)
        << "\n";
    for (const auto& [idx, e] : entries) {
      out << campaign_manifest_entry_line(e) << "\n";
    }
    if (done) out << "done\n";
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("write failed: " + tmp.string());
    }
  }
  fs::rename(tmp, dir / kCampaignManifestName);
}

}  // namespace gpuvar
