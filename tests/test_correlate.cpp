#include "core/correlate.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {
namespace {

RecordFrame linear_records() {
  // perf inversely proportional to frequency; power constant; temp noisy.
  RecordFrame rs;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    RunRecord r;
    r.gpu_index = i;
    r.freq_mhz = 1300.0 + i;
    r.perf_ms = 1e6 / r.freq_mhz;
    r.power_w = 298.0;
    r.temp_c = rng.uniform(40.0, 80.0);
    rs.append_row(r);
  }
  return rs;
}

TEST(Correlate, PerfFreqStronglyNegative) {
  const auto rs = linear_records();
  const auto c = correlate_pair(rs, Metric::kFreq, Metric::kPerf);
  EXPECT_LT(c.rho, -0.99);
  EXPECT_EQ(c.strength, "strong");
  EXPECT_LT(c.spearman, -0.99);
}

TEST(Correlate, ConstantPowerUncorrelated) {
  const auto rs = linear_records();
  const auto c = correlate_pair(rs, Metric::kPower, Metric::kPerf);
  EXPECT_DOUBLE_EQ(c.rho, 0.0);
  EXPECT_EQ(c.strength, "uncorrelated");
}

TEST(Correlate, ReportCoversPaperPairs) {
  const auto rs = linear_records();
  const auto report = analyze_correlation(rs);
  EXPECT_EQ(report.perf_freq.x, Metric::kFreq);
  EXPECT_EQ(report.perf_freq.y, Metric::kPerf);
  EXPECT_EQ(report.power_temp.x, Metric::kTemp);
  EXPECT_EQ(report.power_temp.y, Metric::kPower);
  EXPECT_EQ(report.all().size(), 4u);
  EXPECT_LT(report.perf_freq.rho, -0.99);
  EXPECT_NEAR(report.perf_temp.rho, 0.0, 0.25);
}

TEST(Correlate, TooFewRecordsThrow) {
  RecordFrame rs;
  rs.append_row(RunRecord{});
  EXPECT_THROW(correlate_pair(rs, Metric::kFreq, Metric::kPerf),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
