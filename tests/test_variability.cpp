#include "core/variability.hpp"

#include <gtest/gtest.h>

#include "telemetry/frame.hpp"
#include "cluster/faults.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

RunRecord rec(std::size_t gpu, double perf, double freq = 1400.0,
              double power = 295.0, double temp = 60.0, int cabinet = 0,
              int run = 0, int day = -1) {
  RunRecord r;
  r.gpu_index = gpu;
  r.loc.cabinet = cabinet;
  r.loc.row = cabinet;
  r.loc.node = static_cast<int>(gpu / 4);
  r.loc.name = "gpu" + std::to_string(gpu);
  r.run_index = run;
  r.day_of_week = day;
  r.perf_ms = perf;
  r.freq_mhz = freq;
  r.power_w = power;
  r.temp_c = temp;
  return r;
}

/// Test-local frame construction (the bulk row adapters are gone).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

TEST(Variability, AnalyzeComputesVariationPct) {
  std::vector<RunRecord> rs;
  for (int i = 0; i < 5; ++i) rs.push_back(rec(i, 2400.0 + i * 50.0));
  const auto report = analyze_variability(frame_from(rs));
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.gpus, 5u);
  EXPECT_DOUBLE_EQ(report.perf.box.median, 2500.0);
  EXPECT_NEAR(report.perf.variation_pct,
              report.perf.box.variation() * 100.0, 1e-9);
}

TEST(Variability, GroupKeysAndLabels) {
  auto r = rec(0, 1.0);
  r.loc.cabinet = 5;
  r.loc.row = 7;
  r.loc.column = 35;
  r.loc.node = 17;
  r.day_of_week = 0;
  EXPECT_EQ(group_key(r, GroupBy::kCabinet), 5);
  EXPECT_EQ(group_key(r, GroupBy::kRow), 7);
  EXPECT_EQ(group_key(r, GroupBy::kColumn), 35);
  EXPECT_EQ(group_key(r, GroupBy::kNode), 17);
  EXPECT_EQ(group_key(r, GroupBy::kDayOfWeek), 0);
  EXPECT_EQ(group_label(GroupBy::kCabinet, 5), "c005");
  EXPECT_EQ(group_label(GroupBy::kRow, 7), "row H");
  EXPECT_EQ(group_label(GroupBy::kColumn, 35), "col 36");
  EXPECT_EQ(group_label(GroupBy::kDayOfWeek, 0), "Mon");
}

TEST(Variability, SeriesByGroupSplitsValues) {
  std::vector<RunRecord> rs;
  rs.push_back(rec(0, 100.0, 1, 1, 1, /*cabinet=*/0));
  rs.push_back(rec(1, 200.0, 1, 1, 1, /*cabinet=*/0));
  rs.push_back(rec(2, 300.0, 1, 1, 1, /*cabinet=*/1));
  const auto series = series_by_group(frame_from(rs), Metric::kPerf, GroupBy::kCabinet);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].values.size(), 2u);
  EXPECT_EQ(series[1].values.size(), 1u);
}

TEST(Variability, ByGroupReportsPerGroup) {
  std::vector<RunRecord> rs;
  for (int i = 0; i < 8; ++i) {
    rs.push_back(rec(i, 1000.0 + 100.0 * (i % 4), 1400, 295, 60, i / 4));
  }
  const auto groups = variability_by_group(frame_from(rs), GroupBy::kCabinet);
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at(0).records, 4u);
}

TEST(Variability, ByDayKeepsOnlyDaysZeroToSix) {
  std::vector<RunRecord> rs;
  // Days 0 and 3 are real; -1 (no day sweep) and 7 are not days.
  const int days[] = {0, 3, -1, 3, 7, 0, 3};
  for (int i = 0; i < 7; ++i) {
    rs.push_back(rec(i % 3, 1000.0 + 10.0 * i, 1400, 295, 60, 0, i, days[i]));
  }
  const auto by_day = variability_by_group(frame_from(rs), GroupBy::kDayOfWeek);
  ASSERT_EQ(by_day.size(), 2u);
  EXPECT_EQ(by_day.at(0).records, 2u);
  EXPECT_EQ(by_day.at(0).gpus, 2u);  // rows 0 and 5: GPUs 0 and 2
  EXPECT_EQ(by_day.at(3).records, 3u);
  EXPECT_EQ(by_day.at(3).gpus, 2u);  // rows 1, 3, 6: GPUs 1, 0, 0
  EXPECT_DOUBLE_EQ(by_day.at(3).perf.box.median, 1030.0);
}

TEST(Variability, RepeatabilityMatchesDefinition) {
  std::vector<RunRecord> rs;
  // GPU 0: runs 100, 102, 104 -> (104-100)/102 = 3.92%.
  rs.push_back(rec(0, 100.0, 1, 1, 1, 0, 0));
  rs.push_back(rec(0, 102.0, 1, 1, 1, 0, 1));
  rs.push_back(rec(0, 104.0, 1, 1, 1, 0, 2));
  // GPU 1: single run -> skipped.
  rs.push_back(rec(1, 500.0));
  const auto reps = per_gpu_repeatability(frame_from(rs));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].gpu_index, 0u);
  EXPECT_EQ(reps[0].runs, 3);
  EXPECT_NEAR(reps[0].variation_pct, 4.0 / 102.0 * 100.0, 1e-9);
}

TEST(Variability, EmptyRecordsThrow) {
  std::vector<RunRecord> rs;
  EXPECT_THROW(analyze_variability(frame_from(rs)), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
