// User-impact quantification (§VII "Impact on Users"): what a submitted
// job actually experiences on a variable cluster. Beyond the paper's
// headline probabilities ("18% chance of a slower GPU", "40-50% for
// 4-GPU jobs"), a user planning a bulk-synchronous job wants the expected
// *slowdown* — for a k-GPU job that is the expected maximum of k random
// per-GPU runtimes, which this module computes exactly from the measured
// per-GPU medians.
#pragma once

#include <vector>

namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct JobImpact {
  int gpus_per_job = 1;
  /// Expected runtime of a random k-GPU bulk-synchronous assignment,
  /// relative to a job placed entirely on median GPUs.
  double expected_slowdown = 1.0;
  /// 95th percentile of the same distribution (the unlucky assignment).
  double p95_slowdown = 1.0;
  /// The paper's headline: probability of receiving at least one GPU more
  /// than `threshold` slower than the median.
  double p_any_slow = 0.0;
};

struct UserImpactOptions {
  /// Largest job width in the table (widths double: 1, 2, 4 ...).
  int max_width = 8;
  /// "Slow" means more than this fraction above the median GPU.
  double slow_threshold = 0.06;
};

/// Impact table for several job widths (1, 2, 4, 8 ... up to
/// options.max_width), over a frame- or dataset-backed source. The
/// per-GPU medians are computed and sorted once for every width; each
/// row is bit-identical to job_impact(source, k, options.slow_threshold),
/// and a width beyond the population throws as job_impact does.
std::vector<JobImpact> analyze_user_impact(
    const query::Source& source, const UserImpactOptions& options = {});

/// Exact expected/quantile slowdown for a k-GPU job assigned uniformly at
/// random without replacement, computed from per-GPU median runtimes via
/// order statistics on the empirical distribution.
JobImpact job_impact(const query::Source& source, int gpus_per_job,
                     double slow_threshold = 0.06);

}  // namespace gpuvar
