#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "telemetry/frame.hpp"
#include "cluster/faults.hpp"
#include "core/correlate.hpp"
#include "core/flagging.hpp"
#include "core/variability.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

RecordFrame sample_records() {
  Rng rng(1);
  RecordFrame rs;
  for (int i = 0; i < 60; ++i) {
    RunRecord r;
    r.gpu_index = i;
    r.loc.cabinet = i / 20;
    r.loc.row = i / 30;
    r.loc.node = i / 4;
    r.loc.name = "gpu" + std::to_string(i);
    r.day_of_week = i % 7;
    r.freq_mhz = 1350.0 + rng.normal(0.0, 20.0);
    r.perf_ms = 2500.0 * 1365.0 / r.freq_mhz;
    r.power_w = 298.0 + rng.normal(0.0, 1.0);
    r.temp_c = rng.uniform(40.0, 80.0);
    rs.append_row(r);
  }
  return rs;
}

TEST(Report, SectionBanner) {
  std::ostringstream out;
  print_section(out, "hello");
  EXPECT_EQ(out.str(), "\n==== hello ====\n");
}

TEST(Report, VariabilityTableShowsAllMetrics) {
  std::ostringstream out;
  print_variability_table(out, analyze_variability(sample_records()));
  const std::string text = out.str();
  for (const char* needle :
       {"perf", "frequency", "power", "temperature", "variation",
        "records: 60 across 60 GPUs", "median"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, CorrelationTableShowsAllPairs) {
  std::ostringstream out;
  print_correlation_table(out, analyze_correlation(sample_records()));
  const std::string text = out.str();
  EXPECT_NE(text.find("rho(performance"), std::string::npos);
  EXPECT_NE(text.find("rho(power"), std::string::npos);
  EXPECT_NE(text.find("spearman"), std::string::npos);
  // perf-freq is strong by construction.
  EXPECT_NE(text.find("strong"), std::string::npos);
}

TEST(Report, GroupBoxesOneRowPerGroup) {
  std::ostringstream out;
  print_group_boxes(out, sample_records(), Metric::kPerf, GroupBy::kCabinet);
  const std::string text = out.str();
  EXPECT_NE(text.find("c000"), std::string::npos);
  EXPECT_NE(text.find("c001"), std::string::npos);
  EXPECT_NE(text.find("c002"), std::string::npos);
  EXPECT_NE(text.find("performance by group"), std::string::npos);
}

TEST(Report, ScatterShowsLabelsAndRho) {
  std::ostringstream out;
  print_scatter(out, sample_records(), Metric::kFreq, Metric::kPerf);
  const std::string text = out.str();
  EXPECT_NE(text.find("frequency (MHz)"), std::string::npos);
  EXPECT_NE(text.find("performance (ms)"), std::string::npos);
  EXPECT_NE(text.find("rho"), std::string::npos);
}

TEST(Report, FlagsEmptyReport) {
  std::ostringstream out;
  print_flags(out, FlagReport{});
  EXPECT_NE(out.str().find("no anomalies"), std::string::npos);
}

TEST(Report, FlagsTruncatesLongLists) {
  FlagReport report;
  for (int i = 0; i < 20; ++i) {
    GpuFlag f;
    f.gpu_index = i;
    f.name = "gpu" + std::to_string(i);
    f.reasons = {FlagReason::kSlowOutlier};
    f.severity = 20.0 - i;
    report.gpus.push_back(std::move(f));
  }
  CabinetFlag cf;
  cf.cabinet = 7;
  cf.note = "check pump";
  report.cabinets.push_back(cf);

  std::ostringstream out;
  print_flags(out, report, 5);
  const std::string text = out.str();
  EXPECT_NE(text.find("gpu0"), std::string::npos);
  EXPECT_NE(text.find("... and 15 more"), std::string::npos);
  EXPECT_EQ(text.find("gpu9"), std::string::npos);
  EXPECT_NE(text.find("[cabinet 7] check pump"), std::string::npos);
}

TEST(Report, MetricNamesAndUnits) {
  EXPECT_EQ(metric_name(Metric::kPerf), "performance");
  EXPECT_EQ(metric_unit(Metric::kPerf), "ms");
  EXPECT_EQ(metric_unit(Metric::kFreq), "MHz");
  EXPECT_EQ(metric_unit(Metric::kPower), "W");
  EXPECT_EQ(metric_unit(Metric::kTemp), "C");
}

}  // namespace
}  // namespace gpuvar
