// RecordFrame: the columnar data plane (telemetry/frame.hpp).
//
// The contract under test is bit-identity, not approximation: the frame
// must produce exactly the same bytes/doubles as the row-oriented
// reference implementations kept below as test-local oracles (the
// library's bulk row adapters are gone), the FrameBuilder merge must be
// independent of how rows were partitioned into buckets, and the frame
// CSV must round-trip losslessly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/compare.hpp"
#include "core/correlate.hpp"
#include "core/drift.hpp"
#include "core/flagging.hpp"
#include "core/markdown_report.hpp"
#include "core/projection.hpp"
#include "core/user_impact.hpp"
#include "core/variability.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "stats/quantile.hpp"
#include "telemetry/export.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

/// Deterministic synthetic campaign. Rows arrive run-major and visit
/// GPUs in a non-monotone order so interning order != gpu_index order —
/// the case where frame/row grouping could plausibly diverge.
std::vector<RunRecord> synth_records(std::size_t gpus, int runs) {
  std::vector<RunRecord> out;
  out.reserve(gpus * static_cast<std::size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    for (std::size_t i = 0; i < gpus; ++i) {
      const std::size_t g = (i * 7 + 3) % gpus;
      RunRecord r;
      r.gpu_index = 1000 + g;
      r.loc.node = static_cast<int>(g / 4);
      r.loc.gpu = static_cast<int>(g % 4);
      r.loc.cabinet = static_cast<int>(g / 16);
      r.loc.row = static_cast<int>(g % 3);
      r.loc.column = static_cast<int>(g % 5);
      r.loc.node_in_group = static_cast<int>(g % 8);
      r.loc.name = "c" + std::to_string(g / 16) + "-n" +
                   std::to_string(g / 4) + "-g" + std::to_string(g % 4);
      r.run_index = run;
      r.day_of_week = static_cast<int>((g + static_cast<std::size_t>(run)) % 7);
      const double jitter = 0.0625 * static_cast<double>((g * 13 + static_cast<std::size_t>(run) * 5) % 11);
      r.perf_ms = 100.0 + 0.125 * static_cast<double>(g) + 3.0 * run + jitter;
      r.freq_mhz = 1410.0 - 0.25 * static_cast<double>(g % 17) - run;
      r.power_w = 300.0 + 0.5 * static_cast<double>(g % 9) - 0.25 * run;
      r.temp_c = 60.0 + 0.03125 * static_cast<double>(g) + run;
      r.counters.fu_util = 0.5 + 0.001 * static_cast<double>(g % 100);
      r.counters.dram_util = 0.25 + 0.002 * static_cast<double>(g % 50);
      r.counters.mem_stall_frac = 0.125 + 0.001 * static_cast<double>(run);
      r.counters.exec_stall_frac = 0.0625;
      out.push_back(std::move(r));
    }
  }
  return out;
}


/// Test-local frame construction from rows (the library's bulk row
/// adapters are gone; streaming append_row is the construction API).
RecordFrame frame_from(const std::vector<RunRecord>& rows,
                       std::size_t start = 0,
                       std::size_t count = std::size_t(-1)) {
  const std::size_t end = std::min(rows.size(), count == std::size_t(-1)
                                                    ? rows.size()
                                                    : start + count);
  RecordFrame f;
  f.reserve(end - start);
  for (std::size_t i = start; i < end; ++i) f.append_row(rows[i]);
  return f;
}

/// Row-oriented oracle for RecordFrame::metric: the original AoS extraction,
/// kept here to pin the frame path bit-for-bit.
std::vector<double> rows_metric_column(const std::vector<RunRecord>& records,
                                       Metric m) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(metric_value(r, m));
  return out;
}

/// Row-oriented oracle for per_gpu_medians: the original map-per-GPU
/// aggregation the counting-sort frame path must reproduce exactly.
std::vector<GpuAggregate> rows_per_gpu_medians(
    const std::vector<RunRecord>& records) {
  std::map<std::size_t, std::vector<const RunRecord*>> by_gpu;
  for (const auto& r : records) by_gpu[r.gpu_index].push_back(&r);

  std::vector<GpuAggregate> out;
  out.reserve(by_gpu.size());
  for (const auto& [gpu, rs] : by_gpu) {
    GpuAggregate agg;
    agg.gpu_index = gpu;
    agg.loc = rs.front()->loc;
    agg.runs = static_cast<int>(rs.size());
    std::vector<double> perf, freq, power, temp;
    perf.reserve(rs.size());
    for (const RunRecord* r : rs) {
      perf.push_back(r->perf_ms);
      freq.push_back(r->freq_mhz);
      power.push_back(r->power_w);
      temp.push_back(r->temp_c);
    }
    agg.perf_ms = stats::median(perf);
    agg.freq_mhz = stats::median(freq);
    agg.power_w = stats::median(power);
    agg.temp_c = stats::median(temp);
    out.push_back(std::move(agg));
  }
  return out;
}

void expect_frames_identical(const RecordFrame& a, const RecordFrame& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.gpu_count(), b.gpu_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.perf_ms()[i], b.perf_ms()[i]);
    EXPECT_EQ(a.freq_mhz()[i], b.freq_mhz()[i]);
    EXPECT_EQ(a.power_w()[i], b.power_w()[i]);
    EXPECT_EQ(a.temp_c()[i], b.temp_c()[i]);
    EXPECT_EQ(a.gpu_ids()[i], b.gpu_ids()[i]);
    EXPECT_EQ(a.run_indices()[i], b.run_indices()[i]);
    EXPECT_EQ(a.days_of_week()[i], b.days_of_week()[i]);
  }
  for (std::uint32_t id = 0; id < a.gpu_count(); ++id) {
    EXPECT_EQ(a.gpu(id).gpu_index, b.gpu(id).gpu_index);
    EXPECT_EQ(a.gpu(id).loc.name, b.gpu(id).loc.name);
  }
}

TEST(RecordFrame, RoundTripsRows) {
  const auto records = synth_records(24, 3);
  const auto frame = frame_from(records);
  ASSERT_EQ(frame.size(), records.size());
  EXPECT_EQ(frame.gpu_count(), 24u);
  std::vector<RunRecord> back;
  for (std::size_t i = 0; i < frame.size(); ++i) back.push_back(frame.row(i));
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].gpu_index, records[i].gpu_index);
    EXPECT_EQ(back[i].loc.name, records[i].loc.name);
    EXPECT_EQ(back[i].loc.node, records[i].loc.node);
    EXPECT_EQ(back[i].run_index, records[i].run_index);
    EXPECT_EQ(back[i].day_of_week, records[i].day_of_week);
    EXPECT_EQ(back[i].perf_ms, records[i].perf_ms);
    EXPECT_EQ(back[i].freq_mhz, records[i].freq_mhz);
    EXPECT_EQ(back[i].power_w, records[i].power_w);
    EXPECT_EQ(back[i].temp_c, records[i].temp_c);
    EXPECT_EQ(back[i].counters.fu_util, records[i].counters.fu_util);
  }
}

TEST(RecordFrame, MetricViewsAreZeroCopyAndMatchRows) {
  const auto records = synth_records(16, 2);
  const auto frame = frame_from(records);
  // Same underlying storage for repeated calls: a true view, not a copy.
  EXPECT_EQ(frame.perf_ms().data(), frame.metric(Metric::kPerf).data());
  EXPECT_EQ(frame.temp_c().data(), frame.metric(Metric::kTemp).data());
  for (Metric m : {Metric::kPerf, Metric::kFreq, Metric::kPower,
                   Metric::kTemp}) {
    const auto legacy = rows_metric_column(records, m);
    const auto view = frame.metric(m);
    ASSERT_EQ(legacy.size(), view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(legacy[i], view[i]);
    }
  }
}

TEST(RecordFrame, BuilderIsPartitionInvariant) {
  const auto records = synth_records(20, 4);
  // Reference: everything through one bucket.
  FrameBuilder ref(1);
  for (const auto& r : records) ref.bucket(0).append_row(r);
  const RecordFrame expected = ref.finish();

  // Contiguous slices across varying bucket counts (uneven on purpose):
  // the merged frame must be identical however the stream was split.
  for (std::size_t buckets : {2u, 3u, 7u, 16u}) {
    FrameBuilder b(buckets);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::size_t slice = i * buckets / records.size();
      b.bucket(slice).append_row(records[i]);
    }
    const RecordFrame merged = b.finish();
    expect_frames_identical(expected, merged);
  }
}

TEST(RecordFrame, ChunkedAppendMatchesBulkBuild) {
  const auto records = synth_records(12, 3);
  const auto expected = frame_from(records);
  RecordFrame chunked;
  for (std::size_t start = 0; start < records.size(); start += 7) {
    const std::size_t len = std::min<std::size_t>(7, records.size() - start);
    const auto chunk = frame_from(records, start, len);
    chunked.append(chunk);
  }
  expect_frames_identical(expected, chunked);
}

TEST(RecordFrame, PerGpuMediansBitIdenticalToRowPath) {
  const auto records = synth_records(31, 5);
  const auto frame = frame_from(records);
  const auto rows = rows_per_gpu_medians(records);
  const auto cols = per_gpu_medians(frame);
  ASSERT_EQ(rows.size(), cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].gpu_index, cols[i].gpu_index);
    EXPECT_EQ(rows[i].loc.name, cols[i].loc.name);
    EXPECT_EQ(rows[i].runs, cols[i].runs);
    EXPECT_EQ(rows[i].perf_ms, cols[i].perf_ms);
    EXPECT_EQ(rows[i].freq_mhz, cols[i].freq_mhz);
    EXPECT_EQ(rows[i].power_w, cols[i].power_w);
    EXPECT_EQ(rows[i].temp_c, cols[i].temp_c);
  }
}

TEST(RecordFrame, AnalysesInvariantUnderRowMaterialization) {
  // Materializing every row (frame.row) and re-appending it must yield a
  // frame every analysis treats as bit-identical — the escape hatch for
  // row-shaped consumers cannot lose or perturb anything.
  const auto records = synth_records(28, 6);
  const auto frame = frame_from(records);
  RecordFrame rows;
  rows.reserve(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) rows.append_row(frame.row(i));

  const auto va = analyze_variability(rows);
  const auto vb = analyze_variability(frame);
  EXPECT_EQ(va.records, vb.records);
  EXPECT_EQ(va.gpus, vb.gpus);
  EXPECT_EQ(va.perf.box.median, vb.perf.box.median);
  EXPECT_EQ(va.perf.variation_pct, vb.perf.variation_pct);
  EXPECT_EQ(va.temp.box.hi_whisker, vb.temp.box.hi_whisker);

  const auto ra = per_gpu_repeatability(rows);
  const auto rb = per_gpu_repeatability(frame);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].gpu_index, rb[i].gpu_index);
    EXPECT_EQ(ra[i].median_perf_ms, rb[i].median_perf_ms);
    EXPECT_EQ(ra[i].variation_pct, rb[i].variation_pct);
  }

  EXPECT_EQ(estimate_run_noise_ms(rows), estimate_run_noise_ms(frame));

  const auto da = analyze_drift(rows);
  const auto db = analyze_drift(frame);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].gpu_index, db[i].gpu_index);
    EXPECT_EQ(da[i].drift_pct, db[i].drift_pct);
  }

  const auto fa = analyze_flags(rows);
  const auto fb = analyze_flags(frame);
  ASSERT_EQ(fa.gpus.size(), fb.gpus.size());
  for (std::size_t i = 0; i < fa.gpus.size(); ++i) {
    EXPECT_EQ(fa.gpus[i].gpu_index, fb.gpus[i].gpu_index);
    EXPECT_EQ(fa.gpus[i].severity, fb.gpus[i].severity);
  }

  const auto ca = analyze_correlation(rows);
  const auto cb = analyze_correlation(frame);
  EXPECT_EQ(ca.perf_temp.rho, cb.perf_temp.rho);
  EXPECT_EQ(ca.perf_power.spearman, cb.perf_power.spearman);
  EXPECT_EQ(ca.power_temp.rho, cb.power_temp.rho);

  const auto ja = job_impact(rows, 4);
  const auto jb = job_impact(frame, 4);
  EXPECT_EQ(ja.expected_slowdown, jb.expected_slowdown);
  EXPECT_EQ(ja.p95_slowdown, jb.p95_slowdown);
  EXPECT_EQ(ja.p_any_slow, jb.p_any_slow);

  const auto pa = project_to_cluster_size(rows, 1024);
  const auto pb = project_to_cluster_size(frame, 1024);
  EXPECT_EQ(pa.source_variation_pct, pb.source_variation_pct);
  EXPECT_EQ(pa.projected_variation_pct, pb.projected_variation_pct);

  // The full rendered report is the strongest equality: every table, to
  // the byte. (Bootstrap off: its resampling draws are seeded identically
  // either way, but 0 keeps the test fast.)
  MarkdownReportOptions opts;
  opts.bootstrap_resamples = 0;
  std::ostringstream md_rows, md_frame;
  write_markdown_report(md_rows, rows, opts);
  write_markdown_report(md_frame, frame, opts);
  EXPECT_EQ(md_rows.str(), md_frame.str());
}

TEST(RecordFrame, CompareCampaignsPartitionInvariant) {
  const auto before = synth_records(20, 3);
  auto after = synth_records(20, 3);
  for (auto& r : after) r.perf_ms *= 1.01;
  // Bulk-built frames vs chunk-appended frames: same comparison bytes.
  RecordFrame before_chunked, after_chunked;
  for (std::size_t start = 0; start < before.size(); start += 11) {
    before_chunked.append(frame_from(before, start, 11));
    after_chunked.append(frame_from(after, start, 11));
  }
  const auto via_rows = analyze_compare(before_chunked, after_chunked);
  const auto via_frames =
      analyze_compare(frame_from(before), frame_from(after));
  EXPECT_EQ(via_rows.matched_gpus, via_frames.matched_gpus);
  EXPECT_EQ(via_rows.median_delta_pct, via_frames.median_delta_pct);
  EXPECT_EQ(via_rows.noise_floor_pct, via_frames.noise_floor_pct);
  ASSERT_EQ(via_rows.significant.size(), via_frames.significant.size());
  for (std::size_t i = 0; i < via_rows.significant.size(); ++i) {
    EXPECT_EQ(via_rows.significant[i].name, via_frames.significant[i].name);
    EXPECT_EQ(via_rows.significant[i].delta_pct,
              via_frames.significant[i].delta_pct);
  }
}

TEST(RecordFrame, SelectPreservesRowsAndReinterns) {
  const auto records = synth_records(10, 2);
  const auto frame = frame_from(records);
  std::vector<std::size_t> odd_rows;
  for (std::size_t i = 1; i < frame.size(); i += 2) odd_rows.push_back(i);
  const auto sub = frame.select(odd_rows);
  ASSERT_EQ(sub.size(), odd_rows.size());
  for (std::size_t i = 0; i < odd_rows.size(); ++i) {
    EXPECT_EQ(sub.perf_ms()[i], frame.perf_ms()[odd_rows[i]]);
    EXPECT_EQ(sub.gpu_index(i), frame.gpu_index(odd_rows[i]));
    EXPECT_EQ(sub.loc(i).name, frame.loc(odd_rows[i]).name);
  }
  EXPECT_LE(sub.gpu_count(), frame.gpu_count());
}

TEST(RecordFrame, CsvRoundTripIsLossless) {
  auto records = synth_records(18, 3);
  // Values a fixed-digit writer loses or mangles: signed zeros, the
  // extremes, 1-ulp neighbours of round numbers and 17-significant-digit
  // values. Row k gives column c value (k + c) % n, so every metric
  // column sees every value. The non-finite ones are exported but
  // refused on import (below).
  const std::vector<double> special = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::nextafter(0.1, 0.0),
      std::nextafter(0.1, 1.0),
      std::nextafter(1530.0, 0.0),
      std::nextafter(1530.0, 2000.0),
      0.1 + 0.2,
      1.0 / 3.0 * 1e10,
  };
  for (std::size_t k = 0; k < special.size(); ++k) {
    RunRecord r = records[k];
    r.gpu_index = 5000 + k;
    r.loc.name = "special-" + std::to_string(k);
    const auto at = [&](std::size_t c) {
      return special[(k + c) % special.size()];
    };
    r.perf_ms = at(0);
    r.freq_mhz = at(1);
    r.power_w = at(2);
    r.temp_c = at(3);
    r.counters.fu_util = at(4);
    r.counters.dram_util = at(5);
    r.counters.mem_stall_frac = at(6);
    r.counters.exec_stall_frac = at(7);
    records.push_back(std::move(r));
  }
  const auto frame = frame_from(records);

  std::ostringstream csv;
  export_frame_csv(csv, "synth", frame);
  std::istringstream in(csv.str());
  const auto back = import_results_frame(in);

  // Bit for bit.
  const auto same_bits = [](std::span<const double> a,
                            std::span<const double> b, std::size_t i) {
    return std::bit_cast<std::uint64_t>(a[i]) ==
           std::bit_cast<std::uint64_t>(b[i]);
  };
  ASSERT_EQ(back.size(), frame.size());
  EXPECT_EQ(back.gpu_count(), frame.gpu_count());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_TRUE(same_bits(back.perf_ms(), frame.perf_ms(), i)) << i;
    EXPECT_TRUE(same_bits(back.freq_mhz(), frame.freq_mhz(), i)) << i;
    EXPECT_TRUE(same_bits(back.power_w(), frame.power_w(), i)) << i;
    EXPECT_TRUE(same_bits(back.temp_c(), frame.temp_c(), i)) << i;
    EXPECT_TRUE(same_bits(back.fu_util(), frame.fu_util(), i)) << i;
    EXPECT_TRUE(same_bits(back.dram_util(), frame.dram_util(), i)) << i;
    EXPECT_TRUE(same_bits(back.mem_stall_frac(), frame.mem_stall_frac(), i))
        << i;
    EXPECT_TRUE(
        same_bits(back.exec_stall_frac(), frame.exec_stall_frac(), i))
        << i;
    EXPECT_EQ(back.gpu_index(i), frame.gpu_index(i)) << i;
    EXPECT_EQ(back.run_index(i), frame.run_index(i));
    EXPECT_EQ(back.day_of_week(i), frame.day_of_week(i));
    EXPECT_EQ(back.loc(i).name, frame.loc(i).name);
    EXPECT_EQ(back.loc(i).node, frame.loc(i).node);
    EXPECT_EQ(back.loc(i).cabinet, frame.loc(i).cabinet);
    EXPECT_EQ(back.loc(i).gpu, frame.loc(i).gpu);
    EXPECT_EQ(back.loc(i).row, frame.loc(i).row);
    EXPECT_EQ(back.loc(i).column, frame.loc(i).column);
    EXPECT_EQ(back.loc(i).node_in_group, frame.loc(i).node_in_group);
  }

  // The serialized form itself must be a fixed point: re-exporting the
  // imported frame reproduces the bytes.
  std::ostringstream again;
  export_frame_csv(again, "synth", back);
  EXPECT_EQ(csv.str(), again.str());

  // A NaN or an infinity is refused by the export itself, before any
  // byte is written, in the words the importer would refuse its line
  // with: the lowest bad row, then its first bad column.
  const std::vector<std::pair<double, std::string>> non_finite = {
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
  };
  for (const auto& [value, text] : non_finite) {
    std::vector<RunRecord> rows = synth_records(4, 1);
    rows[2].temp_c = value;
    rows[2].counters.exec_stall_frac = value;
    rows[3].perf_ms = value;
    std::ostringstream out;
    try {
      export_frame_csv(out, "synth", frame_from(rows));
      ADD_FAILURE() << text << " was exported";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "line 4: not a finite number '" + text +
                    "' in column temp_c_median")
          << text;
    }
    EXPECT_TRUE(out.str().empty()) << text << ": " << out.str();
  }
}

// ---- the gpu_index -> id index -------------------------------------

/// Rows whose gpu_index values are `keys`, in order. A GPU's location
/// is a function of its key (the importer refuses a key seen with two
/// locations), and its name is long enough for the heap on some keys.
RecordFrame frame_of_keys(const std::vector<std::size_t>& keys) {
  RecordFrame f;
  f.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    RunRecord r;
    r.gpu_index = keys[i];
    r.loc.node = static_cast<int>(keys[i] % 1000);
    r.loc.gpu = static_cast<int>(keys[i] % 6);
    r.loc.name = "g" + std::to_string(keys[i]);
    r.run_index = static_cast<int>(i);
    r.perf_ms = 100.0 + static_cast<double>(i);
    f.append_row(r);
  }
  return f;
}

/// The interning the flat index replaced, kept as the reference: a
/// std::map from gpu_index to the next id in first-appearance order.
struct MapInterning {
  std::vector<std::size_t> pool;    ///< gpu_index per id
  std::vector<std::uint32_t> ids;   ///< id per row
};

MapInterning map_interning(const std::vector<std::size_t>& row_keys) {
  MapInterning out;
  std::map<std::size_t, std::uint32_t> id_of;
  for (const std::size_t key : row_keys) {
    const auto [it, inserted] =
        id_of.try_emplace(key, static_cast<std::uint32_t>(out.pool.size()));
    if (inserted) out.pool.push_back(key);
    out.ids.push_back(it->second);
  }
  return out;
}

void expect_interned_as_map(const RecordFrame& f,
                            const std::vector<std::size_t>& row_keys,
                            const std::string& label) {
  const MapInterning want = map_interning(row_keys);
  ASSERT_EQ(f.size(), row_keys.size()) << label;
  ASSERT_EQ(f.gpu_count(), want.pool.size()) << label;
  for (std::uint32_t id = 0; id < f.gpu_count(); ++id) {
    ASSERT_EQ(f.gpu(id).gpu_index, want.pool[id]) << label << " id " << id;
    ASSERT_EQ(f.gpu(id).loc.name, "g" + std::to_string(want.pool[id]))
        << label;
  }
  const auto ids = f.gpu_ids();
  ASSERT_TRUE(std::equal(ids.begin(), ids.end(), want.ids.begin(),
                         want.ids.end()))
      << label;
}

/// memory_bytes() as it was computed with a std::map index, for a frame
/// whose columns hold exactly their rows (every frame below was
/// reserved to size): the frame object laid out as twelve vectors and
/// the map, the columns, the pool, and one map node per GPU.
std::size_t map_era_memory_bytes(const RecordFrame& f) {
  std::size_t bytes = 12 * sizeof(std::vector<double>) +
                      sizeof(std::map<std::size_t, std::uint32_t>);
  bytes += f.size() * (8 * sizeof(double) + sizeof(std::uint32_t) +
                       sizeof(std::int32_t) + sizeof(std::int16_t));
  for (const GpuRef& g : f.gpus()) {
    bytes += sizeof(GpuRef) + g.loc.name.capacity() + sizeof(std::size_t) +
             sizeof(std::uint32_t) + 3 * sizeof(void*);
  }
  return bytes;
}

/// Key shapes that stress an open-addressing table: every doubling from
/// the first table up, in- and out-of-order runs, strides that share
/// their low bits, and keys at the top of the range. Each key recurs
/// (looked up, not inserted) later in the stream.
std::vector<std::pair<std::string, std::vector<std::size_t>>> key_shapes(
    std::size_t top) {
  constexpr std::size_t kKeys = 3000;
  std::vector<std::pair<std::string, std::vector<std::size_t>>> out;
  std::vector<std::size_t> asc, desc, random, strided, high;
  std::uint64_t state = 0x243f6a8885a308d3ull;
  for (std::size_t i = 0; i < kKeys; ++i) {
    asc.push_back(i);
    desc.push_back(kKeys - 1 - i);
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    random.push_back(static_cast<std::size_t>(state >> 1) % top);
    // Multiples of every table size the index passes through (16 up to
    // 8,192 slots for 3,000 keys), and of 2^32.
    strided.push_back((i % 6 == 5 ? std::size_t{1} << 32 : 16384) * (i + 1));
    high.push_back(top - i);
  }
  out.emplace_back("ascending", asc);
  out.emplace_back("descending", desc);
  out.emplace_back("random", random);
  out.emplace_back("colliding", strided);
  out.emplace_back("near-top", high);
  for (auto& [name, keys] : out) {
    // Revisit every key in another order after the first pass.
    const std::size_t n = keys.size();
    for (std::size_t i = 0; i < n; ++i) keys.push_back(keys[(i * 7 + 3) % n]);
  }
  return out;
}

TEST(RecordFrame, FlatIndexInternsAsTheMapDid) {
  for (const auto& [shape, keys] :
       key_shapes(std::numeric_limits<std::size_t>::max())) {
    // append_row.
    const RecordFrame built = frame_of_keys(keys);
    expect_interned_as_map(built, keys, shape + " append_row");

    // append: onto a frame that already holds half the keys, so half
    // the appended pool entries are lookups.
    const std::vector<std::size_t> seed(keys.begin() + keys.size() / 4,
                                        keys.begin() + keys.size() / 2);
    RecordFrame merged = frame_of_keys(seed);
    merged.reserve(seed.size() + keys.size());
    merged.append(built);
    std::vector<std::size_t> merged_keys = seed;
    merged_keys.insert(merged_keys.end(), keys.begin(), keys.end());
    expect_interned_as_map(merged, merged_keys, shape + " append");

    // Row-subset append and select: every third row, back to front.
    std::vector<std::uint32_t> rows32;
    std::vector<std::size_t> rows;
    std::vector<std::size_t> picked_keys;
    for (std::size_t i = keys.size(); i-- > 0;) {
      if (i % 3 != 0) continue;
      rows32.push_back(static_cast<std::uint32_t>(i));
      rows.push_back(i);
      picked_keys.push_back(keys[i]);
    }
    RecordFrame subset;
    subset.reserve(rows32.size());
    subset.append(built, rows32);
    expect_interned_as_map(subset, picked_keys, shape + " append(rows)");
    const RecordFrame selected = built.select(rows);
    expect_interned_as_map(selected, picked_keys, shape + " select");

    const std::array<const RecordFrame*, 4> frames = {&built, &merged,
                                                      &subset, &selected};
    for (const RecordFrame* f : frames) {
      EXPECT_EQ(f->memory_bytes(), map_era_memory_bytes(*f)) << shape;
    }
  }
}

TEST(RecordFrame, FlatIndexInternsAsTheMapDidOnImport) {
  // The CSV holds gpu_index as a long long, so its top is LLONG_MAX.
  const auto top =
      static_cast<std::size_t>(std::numeric_limits<long long>::max());
  for (const auto& [shape, keys] : key_shapes(top)) {
    std::stringstream csv;
    export_frame_csv(csv, "t", frame_of_keys(keys));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(threads);
      csv.clear();
      csv.seekg(0);
      const RecordFrame imported = import_results_frame(csv, &pool);
      const std::string label =
          shape + " import threads=" + std::to_string(threads);
      expect_interned_as_map(imported, keys, label);
      EXPECT_EQ(imported.memory_bytes(), map_era_memory_bytes(imported))
          << label;
    }
  }
}

TEST(RecordFrame, MemoryBytesKeepsTheMapEraCharge) {
  // The engine's shard budget and the query cache count frames in this
  // unit, so it stays the charge the std::map index had.
  const auto records = synth_records(10, 2);
  const RecordFrame frame = frame_from(records);
  EXPECT_EQ(frame.memory_bytes(), map_era_memory_bytes(frame));
  const std::vector<std::size_t> rows = {19, 0, 7, 7, 3};
  const RecordFrame sub = frame.select(rows);
  EXPECT_EQ(sub.memory_bytes(), map_era_memory_bytes(sub));
  EXPECT_EQ(RecordFrame().memory_bytes(),
            12 * sizeof(std::vector<double>) +
                sizeof(std::map<std::size_t, std::uint32_t>));
#if defined(__GLIBCXX__) && defined(__x86_64__)
  // Recorded from the std::map build; the figures hold for this ABI
  // only (container sizes and string capacities differ elsewhere).
  EXPECT_EQ(frame.memory_bytes(), 2966u);
  EXPECT_EQ(sub.memory_bytes(), 1166u);
  EXPECT_EQ(RecordFrame().memory_bytes(), 336u);
#endif
}

TEST(RecordFrame, MemoryFootprintBeatsRowLayout) {
  const auto records = synth_records(256, 4);
  const auto frame = frame_from(records);
  std::size_t row_bytes = records.capacity() * sizeof(RunRecord);
  for (const auto& r : records) row_bytes += r.loc.name.capacity();
  EXPECT_LT(frame.memory_bytes(), row_bytes);
}

}  // namespace
}  // namespace gpuvar
