#include "core/correlate.hpp"

#include "common/require.hpp"
#include "query/source.hpp"
#include "stats/correlation.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

MetricCorrelation correlate_pair(const query::Source& source, Metric x,
                                 Metric y) {
  GPUVAR_REQUIRE(source.size() >= 2);
  MetricCorrelation out;
  out.x = x;
  out.y = y;
  // Column views; the stats layer takes spans directly.
  const auto xs = source.metric(x);
  const auto ys = source.metric(y);
  out.rho = stats::pearson(xs, ys);
  out.spearman = stats::spearman(xs, ys);
  out.strength = stats::correlation_strength(out.rho);
  return out;
}

CorrelationReport analyze_correlation(const query::Source& source,
                                      const CorrelateOptions&) {
  CorrelationReport r;
  r.perf_temp = correlate_pair(source, Metric::kTemp, Metric::kPerf);
  r.perf_power = correlate_pair(source, Metric::kPower, Metric::kPerf);
  r.perf_freq = correlate_pair(source, Metric::kFreq, Metric::kPerf);
  r.power_temp = correlate_pair(source, Metric::kTemp, Metric::kPower);
  return r;
}

}  // namespace gpuvar
