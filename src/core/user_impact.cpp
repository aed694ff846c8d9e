#include "core/user_impact.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/require.hpp"
#include "query/source.hpp"
#include "stats/quantile.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

namespace {

/// P(all k draws without replacement land among the first i of n sorted
/// values) = C(i,k)/C(n,k), computed for all i in one backward sweep:
/// P_n = 1, P_{i-1} = P_i * (i-k)/i.
std::vector<double> prefix_containment(std::size_t n, std::size_t k) {
  GPUVAR_ASSERT(k >= 1 && k <= n);
  std::vector<double> p(n + 1, 0.0);
  p[n] = 1.0;
  for (std::size_t i = n; i > k; --i) {
    p[i - 1] = p[i] * static_cast<double>(i - k) / static_cast<double>(i);
  }
  // p[i] = 0 for i < k already.
  return p;
}

/// Sorted per-GPU median runtimes: the one input every job width reads.
std::vector<double> sorted_median_perf(const query::Source& source) {
  GPUVAR_REQUIRE(!source.empty());
  std::vector<double> perf = per_gpu_median(
      source.metric(Metric::kPerf), group_rows_by_gpu(source.frame()));
  std::sort(perf.begin(), perf.end());
  return perf;
}

/// The impact of a `gpus_per_job`-wide job on the population whose
/// sorted per-GPU medians are `perf`.
JobImpact impact_of_width(const std::vector<double>& perf, int gpus_per_job,
                          double slow_threshold) {
  const auto n = perf.size();
  GPUVAR_REQUIRE_MSG(static_cast<std::size_t>(gpus_per_job) <= n,
                     "job wider than the measured population");
  // perf is sorted for the prefix analysis below; cut directly.
  const double med = stats::quantile_sorted(perf, 0.5);
  GPUVAR_REQUIRE(med > 0.0);

  const auto k = static_cast<std::size_t>(gpus_per_job);
  const auto p = prefix_containment(n, k);

  JobImpact impact;
  impact.gpus_per_job = gpus_per_job;

  // E[max] = Σ x_(i) * (P_i - P_{i-1}); P95 = first x_(i) with P_i >= .95.
  double expectation = 0.0;
  double p95 = perf.back();
  bool p95_found = false;
  for (std::size_t i = k; i <= n; ++i) {
    const double mass = p[i] - p[i - 1];
    expectation += perf[i - 1] * mass;
    if (!p95_found && p[i] >= 0.95) {
      p95 = perf[i - 1];
      p95_found = true;
    }
  }
  impact.expected_slowdown = expectation / med;
  impact.p95_slowdown = p95 / med;

  // P(at least one GPU slower than (1 + threshold) * median): count the
  // fast subset m; P(none slow) = C(m,k)/C(n,k) = p_fast[m].
  const double cutoff = med * (1.0 + slow_threshold);
  const auto m = static_cast<std::size_t>(
      std::count_if(perf.begin(), perf.end(),
                    [&](double x) { return x <= cutoff; }));
  impact.p_any_slow = (m >= k) ? 1.0 - p[m] : 1.0;
  return impact;
}

}  // namespace

JobImpact job_impact(const query::Source& source, int gpus_per_job,
                     double slow_threshold) {
  GPUVAR_REQUIRE(gpus_per_job >= 1);
  GPUVAR_REQUIRE(slow_threshold > 0.0);
  return impact_of_width(sorted_median_perf(source), gpus_per_job,
                         slow_threshold);
}

std::vector<JobImpact> analyze_user_impact(const query::Source& source,
                                           const UserImpactOptions& options) {
  GPUVAR_REQUIRE(options.max_width >= 1);
  GPUVAR_REQUIRE(options.slow_threshold > 0.0);
  // One sort of the per-GPU medians serves every width.
  const std::vector<double> perf = sorted_median_perf(source);
  std::vector<JobImpact> table;
  for (int k = 1; k <= options.max_width; k *= 2) {
    table.push_back(impact_of_width(perf, k, options.slow_threshold));
  }
  return table;
}

}  // namespace gpuvar
