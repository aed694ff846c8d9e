#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/csv.hpp"
#include "common/location.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"
#include "telemetry/shard.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

/// A two-run cloudlab campaign's frame.
RecordFrame cloudlab_frame(const Cluster& c) {
  return run_campaign(c, default_config(c, sgemm_workload(8192, 2), 2)).frame;
}

TEST(Export, FrameCsvHasHeaderAndRows) {
  const Cluster c(cloudlab_spec());
  const RecordFrame frame = cloudlab_frame(c);
  std::ostringstream out;
  export_frame_csv(out, c.name(), frame);
  const std::string text = out.str();

  // Header plus one line per frame row.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            frame.size() + 1);
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "cluster,gpu,gpu_index,node,cabinet,run,perf_ms,freq_mhz_median,"
            "power_w_median,temp_c_median,fu_util,dram_util,mem_stall_frac,"
            "exec_stall_frac,day_of_week,gpu_in_node,row_idx,column_idx,"
            "node_in_group");
  EXPECT_NE(text.find("cloudlab"), std::string::npos);
  EXPECT_NE(text.find(c.gpu(0).loc.name), std::string::npos);
}

TEST(Export, ResultsCsvRoundTripsPerf) {
  const Cluster c(cloudlab_spec());
  const RecordFrame frame = cloudlab_frame(c);
  std::ostringstream out;
  export_frame_csv(out, c.name(), frame);
  // perf_ms is written as its shortest exact digits and parses back bit for
  // bit.
  const double perf = frame.perf_ms()[0];
  const std::string digits = format_double(perf);
  EXPECT_NE(out.str().find("," + digits + ","), std::string::npos);
  EXPECT_EQ(std::strtod(digits.c_str(), nullptr), perf);
}

TEST(Export, SeriesCsv) {
  TimeSeries series;
  series.push(Sample{Seconds{0.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0}});
  series.push(Sample{Seconds{0.001}, MegaHertz{1395.0}, Watts{295.0}, Celsius{61.0}});
  std::ostringstream out;
  export_series_csv(out, series);
  const std::string text = out.str();
  EXPECT_NE(text.find("t_s,freq_mhz,power_w,temp_c"), std::string::npos);
  EXPECT_NE(text.find("1400"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Export, ImportRoundTripsExport) {
  const Cluster c(cloudlab_spec());
  const RecordFrame frame = cloudlab_frame(c);
  std::ostringstream out;
  export_frame_csv(out, c.name(), frame);
  std::istringstream in(out.str());
  const auto back = import_results_frame(in);
  ASSERT_EQ(back.size(), frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(back.gpu_index(i), frame.gpu_index(i));
    EXPECT_EQ(back.loc(i).name, frame.loc(i).name);
    EXPECT_EQ(back.perf_ms()[i], frame.perf_ms()[i]);
    EXPECT_EQ(back.power_w()[i], frame.power_w()[i]);
    EXPECT_EQ(back.run_index(i), frame.run_index(i));
    EXPECT_EQ(back.fu_util()[i], frame.fu_util()[i]);
  }
  EXPECT_EQ(back.gpu_count(), frame.gpu_count());
}

TEST(Export, ImportRejectsMissingColumns) {
  std::istringstream in("gpu,node\nfoo,1\n");
  EXPECT_THROW(import_results_frame(in), std::invalid_argument);
}

TEST(Export, ImportErrorsNameTheLine) {
  const std::string header =
      "gpu,gpu_index,node,cabinet,run,perf_ms,freq_mhz_median,"
      "power_w_median,temp_c_median,fu_util,dram_util,mem_stall_frac,"
      "exec_stall_frac,day_of_week,gpu_in_node,row_idx,column_idx,"
      "node_in_group\n";
  const std::string good =
      "g0,0,0,0,0,1.5,1530,70.25,36.625,0.5,0.25,0.125,0.0625,-1,0,-1,-1,0\n";
  const auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      import_results_frame(in);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string tail = ",1530,70,36,0.5,0.25,0.125,0.0625,-1,1,-1,-1,1\n";
  EXPECT_EQ(error_of(header + good + "g1,1,1,0,0,abc" + tail),
            "line 3: not a number 'abc' in column perf_ms");
  EXPECT_EQ(error_of(header + "g1,1,1,0,0.5,1" + tail),
            "line 2: not an integer '0.5' in column run");
  EXPECT_EQ(error_of(header + "g1,1,4294967296,0,0,1" + tail),
            "line 2: integer out of range '4294967296' in column node");
  // A negative GPU index, and an index that already names another GPU
  // (by name, or by location under the same name): the frame would fold
  // the second into the first.
  EXPECT_EQ(error_of(header + "g1,-1,1,0,0,1" + tail),
            "line 2: integer out of range '-1' in column gpu_index");
  EXPECT_EQ(error_of(header + good + "g1,0,1,0,0,1" + tail),
            "line 3: gpu_index 0 was first seen with another name or "
            "location");
  EXPECT_EQ(error_of(header + good + "g0,0,1,0,0,1" + tail),
            "line 3: gpu_index 0 was first seen with another name or "
            "location");
  // The frame holds the day as int16.
  EXPECT_EQ(error_of(header +
                     "g1,1,1,0,0,1,1530,70,36,0.5,0.25,0.125,0.0625,40000,1,"
                     "-1,-1,1\n"),
            "line 2: integer out of range '40000' in column day_of_week");
  // A results CSV without the gpu_index column (the pre-index schema).
  EXPECT_EQ(error_of("gpu,node,cabinet,run,perf_ms,freq_mhz_median,"
                     "power_w_median,temp_c_median,fu_util,dram_util,"
                     "mem_stall_frac,exec_stall_frac,day_of_week,"
                     "gpu_in_node,row_idx,column_idx,node_in_group\n"),
            "line 1: results CSV missing column: gpu_index");
  EXPECT_EQ(error_of("gpu,node\nfoo,1\n"),
            "line 1: results CSV missing column: cabinet");
  // A GPU seen again with the same name and location is no error.
  EXPECT_EQ(error_of(header + good + good), "");
  // A header-only file is an empty frame, not an error.
  std::istringstream in(header);
  EXPECT_TRUE(import_results_frame(in).empty());
}

TEST(Export, EmptySeriesJustHeader) {
  TimeSeries series;
  std::ostringstream out;
  export_series_csv(out, series);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

/// The name of synthetic GPU `g`: every fourth holds a comma, doubled
/// quotes and a newline, so its CSV field is quoted over two lines.
std::string synth_name(std::size_t g) {
  return g % 4 == 0 ? "rack, \"" + std::to_string(g) + "\"\nslot"
                    : "g" + std::to_string(g);
}

/// A frame of `rows` rows over rows / 3 GPUs, three runs each, with
/// metric values of every digit count.
RecordFrame synth_frame(std::size_t rows) {
  const std::size_t gpus = rows / 3;
  RecordFrame frame;
  RunRecord r;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t g = i % gpus;
    r.gpu_index = g;
    r.loc.name = synth_name(g);
    r.loc.node = static_cast<int>(g / 6);
    r.loc.gpu = static_cast<int>(g % 6);
    r.loc.cabinet = static_cast<int>(g / 108);
    r.loc.row = g % 2 == 0 ? -1 : static_cast<int>(g % 8);
    r.loc.column = static_cast<int>(g % 36) - 1;
    r.loc.node_in_group = static_cast<int>(g % 18);
    r.run_index = static_cast<int>(i / gpus);
    r.day_of_week = static_cast<int>(i % 8) - 1;
    const double x = static_cast<double>(i);
    r.perf_ms = 1.0 / (x + 3.0);
    r.freq_mhz = 1530.0 - static_cast<double>(i % 200);
    r.power_w = i % 97 == 0 ? -0.0 : 70.25 + x * 1e-3;
    r.temp_c = 36.0 + x / 7.0;
    r.counters.fu_util = x * 1e-9;
    r.counters.dram_util = 1e300 / (x + 1.0);
    r.counters.mem_stall_frac = 0.1 + 0.2;
    r.counters.exec_stall_frac = static_cast<double>(i % 3);
    frame.append_row(r);
  }
  return frame;
}

TEST(Export, FrameCsvSameBytesAtEveryPoolSize) {
  // More rows than one export window holds, and many reader blocks.
  const RecordFrame frame = synth_frame(20000);
  // The frame formatted row by row on one stream: what a serial export
  // writes.
  std::ostringstream serial;
  {
    CsvWriter csv(serial);
    csv.header({"cluster", "gpu", "gpu_index", "node", "cabinet", "run",
                "perf_ms", "freq_mhz_median", "power_w_median",
                "temp_c_median", "fu_util", "dram_util", "mem_stall_frac",
                "exec_stall_frac", "day_of_week", "gpu_in_node", "row_idx",
                "column_idx", "node_in_group"});
    for (std::size_t i = 0; i < frame.size(); ++i) {
      const GpuLocation& loc = frame.loc(i);
      csv.add("synth").add(loc.name).add(frame.gpu_index(i)).add(loc.node);
      csv.add(loc.cabinet).add(frame.run_index(i)).add(frame.perf_ms()[i]);
      csv.add(frame.freq_mhz()[i]).add(frame.power_w()[i]);
      csv.add(frame.temp_c()[i]).add(frame.fu_util()[i]);
      csv.add(frame.dram_util()[i]).add(frame.mem_stall_frac()[i]);
      csv.add(frame.exec_stall_frac()[i]).add(frame.day_of_week(i));
      csv.add(loc.gpu).add(loc.row).add(loc.column).add(loc.node_in_group);
      csv.end_row();
    }
  }
  const std::uint64_t hash = hash_frame_shard(frame, 0);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::ostringstream out;
    export_frame_csv(out, "synth", frame, &pool);
    EXPECT_TRUE(out.str() == serial.str()) << threads << " threads";
    std::istringstream in(out.str());
    EXPECT_EQ(hash_frame_shard(import_results_frame(in, &pool), 0), hash)
        << threads << " threads";
  }
}

/// A results CSV of `rows` rows over rows / 2 GPUs, two runs each, with
/// the line each row starts on. `edit` may change a row's fields before
/// it is written.
struct ResultsCsv {
  std::string text;
  std::vector<std::size_t> lines;
  std::size_t end_line = 0;  ///< the line after the last row
};

ResultsCsv results_csv(
    std::size_t rows,
    const std::function<void(std::size_t, std::vector<std::string>&)>& edit) {
  ResultsCsv csv;
  csv.text =
      "gpu,gpu_index,node,cabinet,run,perf_ms,freq_mhz_median,"
      "power_w_median,temp_c_median,fu_util,dram_util,mem_stall_frac,"
      "exec_stall_frac,day_of_week,gpu_in_node,row_idx,column_idx,"
      "node_in_group\n";
  const std::size_t gpus = rows / 2;
  std::size_t line = 2;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t g = i % gpus;
    std::vector<std::string> fields = {
        synth_name(g), std::to_string(g), std::to_string(g / 6),
        std::to_string(g / 108), std::to_string(i / gpus),
        std::to_string(i) + ".25", "1530", "70.5", "36.125", "0.5", "0.25",
        "0.125", "0.0625", "-1", std::to_string(g % 6), "-1", "-1",
        std::to_string(g % 18)};
    edit(i, fields);
    csv.lines.push_back(line);
    std::string record;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f != 0) record += ',';
      record += csv_escape(fields[f]);
    }
    record += '\n';
    line += static_cast<std::size_t>(
        std::count(record.begin(), record.end(), '\n'));
    csv.text += record;
  }
  csv.end_line = line;
  return csv;
}

TEST(Export, ImportThrowsTheSerialErrorAtEveryPoolSize) {
  // 8,000 rows: eight import blocks and about ten reader blocks. Rows
  // 4,000 on are every GPU's second run.
  constexpr std::size_t kRows = 8000;
  constexpr std::size_t kEarly = 1200;
  constexpr std::size_t kLate = 7000;
  using Edit = std::function<void(std::size_t, std::vector<std::string>&)>;
  const auto at = [](std::size_t row, std::size_t field, std::string value) {
    return [=](std::size_t i, std::vector<std::string>& fields) {
      if (i == row) fields[field] = value;
    };
  };
  const auto both = [](Edit a, Edit b) {
    return [=](std::size_t i, std::vector<std::string>& fields) {
      a(i, fields);
      b(i, fields);
    };
  };
  // The edits add no line, so every row starts where it does unedited.
  const ResultsCsv plain = results_csv(kRows, [](auto, auto&) {});
  const auto line = [&](std::size_t row) {
    return "line " + std::to_string(plain.lines[row]) + ": ";
  };
  constexpr std::size_t kName = 0, kIndex = 1, kNode = 2, kPerf = 5;
  // A late row renamed: its GPU was first seen 4,000 rows, and four
  // blocks, earlier.
  const Edit late_conflict = at(kLate, kName, "other");
  const std::string late_conflict_error =
      line(kLate) + "gpu_index " + std::to_string(kLate - kRows / 2) +
      " was first seen with another name or location";
  // An early row under the index of a GPU of the block before.
  const Edit early_conflict = at(kEarly, kIndex, "100");
  const std::string early_conflict_error =
      line(kEarly) +
      "gpu_index 100 was first seen with another name or location";
  const Edit late_bad = at(kLate, kPerf, "abc");
  const std::string late_bad_error =
      line(kLate) + "not a number 'abc' in column perf_ms";
  const Edit early_bad = at(kEarly, kPerf, "1.5x");
  const std::string early_bad_error =
      line(kEarly) + "not a number '1.5x' in column perf_ms";
  const auto non_finite = [&](std::size_t row, const std::string& text) {
    return line(row) + "not a finite number '" + text + "' in column perf_ms";
  };
  const Edit late_wide = [](std::size_t i, std::vector<std::string>& f) {
    if (i == kLate) f.push_back("extra");
  };

  struct Case {
    std::string text;
    std::string error;
  };
  const auto make = [&](const Edit& edit, const std::string& error) {
    return Case{results_csv(kRows, edit).text, error};
  };
  const std::vector<Case> cases = {
      make(late_bad, late_bad_error),
      make(at(kLate, kNode, "4294967296"),
           line(kLate) +
               "integer out of range '4294967296' in column node"),
      make(late_conflict, late_conflict_error),
      make(late_wide, line(kLate) + "CSV row width does not match header "
                                    "(19 fields, header has 18)"),
      Case{plain.text + "\"open,1\n",
           "line " + std::to_string(plain.end_line) +
               ": unterminated quoted CSV field"},
      // Two defects in two blocks: the lower line wins.
      make(both(early_bad, at(kLate, kNode, "4294967296")), early_bad_error),
      make(both(early_conflict, late_bad), early_conflict_error),
      make(both(early_bad, late_conflict), early_bad_error),
      // A conflict a few rows above a bad number in the same block.
      make(both(at(kLate - 5, kName, "other"), late_bad),
           line(kLate - 5) + "gpu_index " +
               std::to_string(kLate - 5 - kRows / 2) +
               " was first seen with another name or location"),
      // A row's numbers are read before its GPU is checked.
      make(both(late_conflict, late_bad), late_bad_error),
      // from_chars parses these; the importer refuses them.
      make(at(kEarly, kPerf, "nan"), non_finite(kEarly, "nan")),
      make(at(kLate, kPerf, "nan"), non_finite(kLate, "nan")),
      make(at(kLate, kPerf, "-inf"), non_finite(kLate, "-inf")),
      make(at(kLate, kPerf, "infinity"), non_finite(kLate, "infinity")),
      make(both(at(kEarly, kPerf, "-inf"), at(kLate, kPerf, "nan")),
           non_finite(kEarly, "-inf")),
      make(both(early_conflict, at(kLate, kPerf, "infinity")),
           early_conflict_error),
      // The reader's errors come before any field is parsed.
      make(both(early_bad, late_wide),
           line(kLate) + "CSV row width does not match header "
                         "(19 fields, header has 18)"),
  };
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (std::size_t k = 0; k < cases.size(); ++k) {
      std::istringstream in(cases[k].text);
      std::string error;
      try {
        import_results_frame(in, &pool);
      } catch (const std::invalid_argument& e) {
        error = e.what();
      }
      EXPECT_EQ(error, cases[k].error)
          << "case " << k << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gpuvar
