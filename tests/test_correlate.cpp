#include "core/correlate.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

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

TEST(Correlate, ReportIsBitEqualToCorrelatePair) {
  // Every column is heavily tied (a handful of levels), so the shared
  // fractional ranks carry averaged tie ranks. Each report field must
  // be the very double correlate_pair computes for the same pairing.
  RecordFrame rs;
  for (int i = 0; i < 60; ++i) {
    const int level = i % 10;
    RunRecord r;
    r.gpu_index = static_cast<std::size_t>(i);
    r.perf_ms = 100.0 + level * level;
    r.temp_c = 50.0 + level / 3;
    r.power_w = 250.0 + level * level % 7;
    r.freq_mhz = 1300.0 - 10.0 * (level / 2);
    rs.append_row(r);
  }
  const CorrelationReport report = analyze_correlation(rs);
  const std::pair<const MetricCorrelation*, MetricCorrelation> cases[] = {
      {&report.perf_temp, correlate_pair(rs, Metric::kTemp, Metric::kPerf)},
      {&report.perf_power, correlate_pair(rs, Metric::kPower, Metric::kPerf)},
      {&report.perf_freq, correlate_pair(rs, Metric::kFreq, Metric::kPerf)},
      {&report.power_temp, correlate_pair(rs, Metric::kTemp, Metric::kPower)},
  };
  for (const auto& [got, want] : cases) {
    EXPECT_EQ(got->x, want.x);
    EXPECT_EQ(got->y, want.y);
    EXPECT_EQ(std::memcmp(&got->rho, &want.rho, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got->spearman, &want.spearman, sizeof(double)), 0)
        << got->spearman << " vs " << want.spearman;
    EXPECT_EQ(got->strength, want.strength);
  }
  // The ties are real: the rank correlation differs from Pearson.
  EXPECT_NE(report.perf_temp.spearman, report.perf_temp.rho);
}

TEST(Correlate, TooFewRecordsThrow) {
  RecordFrame rs;
  rs.append_row(RunRecord{});
  EXPECT_THROW(correlate_pair(rs, Metric::kFreq, Metric::kPerf),
               std::invalid_argument);
  EXPECT_THROW(analyze_correlation(rs), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
