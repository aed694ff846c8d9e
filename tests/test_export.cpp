#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cluster/cluster.hpp"
#include "common/numfmt.hpp"
#include "common/units.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
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

}  // namespace
}  // namespace gpuvar
