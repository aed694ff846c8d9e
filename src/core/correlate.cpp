#include "core/correlate.hpp"

#include <array>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/thread_pool.hpp"  // IWYU pragma: keep (Source::pool())
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
  GPUVAR_REQUIRE(source.size() >= 2);
  // Four columns feed four pairings: rank each column once and share
  // the ranks. pearson over two rank vectors is exactly what
  // stats::spearman computes, so every field matches correlate_pair's.
  // The spans are resolved here; the four rankings then run as pool
  // tasks, each writing only its own ranks.
  struct Ranked {
    Metric metric;
    std::span<const double> values;
    std::vector<double> ranks;
  };
  std::array<Ranked, 4> columns{Ranked{Metric::kPerf, {}, {}},
                                Ranked{Metric::kTemp, {}, {}},
                                Ranked{Metric::kPower, {}, {}},
                                Ranked{Metric::kFreq, {}, {}}};
  for (Ranked& c : columns) c.values = source.metric(c.metric);
  source.pool().parallel_for(columns.size(), [&](std::size_t k) {
    columns[k].ranks = stats::fractional_ranks(columns[k].values);
  });
  const auto& [perf, temp, power, freq] = columns;
  const auto pair = [](const Ranked& x, const Ranked& y) {
    MetricCorrelation out;
    out.x = x.metric;
    out.y = y.metric;
    out.rho = stats::pearson(x.values, y.values);
    out.spearman = stats::pearson(x.ranks, y.ranks);
    out.strength = stats::correlation_strength(out.rho);
    return out;
  };
  CorrelationReport r;
  r.perf_temp = pair(temp, perf);
  r.perf_power = pair(power, perf);
  r.perf_freq = pair(freq, perf);
  r.power_temp = pair(temp, power);
  return r;
}

}  // namespace gpuvar
