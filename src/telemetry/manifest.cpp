#include "telemetry/manifest.hpp"

#include <array>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/numfmt.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar {

namespace {

namespace fs = std::filesystem;

/// The most fields any manifest line has (an entry line).
constexpr std::size_t kMaxFields = 8;

/// Splits on single spaces (manifest fields never contain spaces) into
/// views of `line`. Returns the field count, which may exceed
/// kMaxFields: only the first kMaxFields fields are stored, and a line
/// with more matches no shape anyway.
std::size_t split_fields(std::string_view line,
                         std::array<std::string_view, kMaxFields>& out) {
  std::size_t n = 0;
  for (;;) {
    const std::size_t sp = line.find(' ');
    if (n < out.size()) out[n] = line.substr(0, sp);
    ++n;
    if (sp == std::string_view::npos) return n;
    line.remove_prefix(sp + 1);
  }
}

}  // namespace

void append_campaign_shard_file_name(std::string& out,
                                     std::size_t bucket_index) {
  out += "bucket-";
  const std::size_t digits_at = out.size();
  append_int(out, static_cast<long long>(bucket_index));
  const std::size_t digits = out.size() - digits_at;
  if (digits < 6) out.insert(digits_at, 6 - digits, '0');
  out += ".shard";
}

std::string campaign_shard_file_name(std::size_t bucket_index) {
  std::string name;
  append_campaign_shard_file_name(name, bucket_index);
  return name;
}

CampaignManifest read_campaign_manifest(const fs::path& path) {
  CampaignManifest m;
  std::ifstream in(path);
  if (!in.good()) return m;
  m.exists = true;
  // One line buffer and one field array for the whole file: fields are
  // views into the line, so a line allocates nothing.
  std::string line;
  std::array<std::string_view, kMaxFields> f;
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
    const std::size_t n = split_fields(line, f);
    if (n == 2 && f[0] == "config") {
      parse_hex(f[1], m.config_hash);
    } else if (n == 1 && f[0] == "done") {
      m.done = true;
    } else if (n == 8 && f[0] == "bucket" && f[2] == "rows" &&
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
        // Entries arrive in bucket order, so the end() hint places each
        // without a search; a repeat overwrites, so the last entry wins.
        m.entries.insert_or_assign(m.entries.end(), e.bucket_index, e);
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
