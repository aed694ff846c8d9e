#include "core/drift.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "query/source.hpp"
#include "stats/kernels.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

namespace {

/// Every GPU's (run_index, perf_ms) history in chronological order, one
/// flat buffer for all of them. Sorting the pairs lexicographically
/// matches the legacy row path exactly (ties on run_index fall back to
/// perf).
struct Histories {
  GpuRowGroups groups;
  /// Per pool id: its history is runs[groups.offsets[id]..offsets[id+1]).
  std::vector<std::pair<int, double>> runs;

  std::span<const std::pair<int, double>> of(std::uint32_t id) const {
    return {runs.data() + groups.offsets[id],
            groups.offsets[id + 1] - groups.offsets[id]};
  }
};

Histories gpu_histories(const query::Source& source) {
  Histories h{group_rows_by_gpu(source.frame()), {}};
  const auto perf = source.metric(Metric::kPerf);
  const auto run = source.run_indices();
  h.runs.reserve(h.groups.rows.size());
  for (std::size_t row : h.groups.rows) h.runs.emplace_back(run[row], perf[row]);
  auto* const base = h.runs.data();
  for (std::size_t id = 0; id + 1 < h.groups.offsets.size(); ++id) {
    const std::size_t begin = h.groups.offsets[id];
    const std::size_t end = h.groups.offsets[id + 1];
    std::sort(base + begin, base + end);
  }
  return h;
}

/// estimate_run_noise_ms over histories already gathered.
double run_noise_ms(const Histories& h) {
  std::vector<double> abs_diffs;
  for (std::uint32_t id : h.groups.order) {
    const auto runs = h.of(id);
    for (std::size_t i = 1; i < runs.size(); ++i) {
      abs_diffs.push_back(std::abs(runs[i].second - runs[i - 1].second));
    }
  }
  GPUVAR_REQUIRE_MSG(!abs_diffs.empty(),
                     "need at least one GPU with two runs");
  // MAD of successive differences -> sigma: each diff is N(0, sqrt(2)·σ),
  // and median(|N(0,s)|) = s / 1.4826. abs_diffs is scratch, so select
  // the median in place instead of sorting a copy.
  return stats::kernels::median_inplace(abs_diffs) * 1.4826 / std::sqrt(2.0);
}

}  // namespace

double estimate_run_noise_ms(const query::Source& source) {
  return run_noise_ms(gpu_histories(source));
}

std::vector<DriftFlag> analyze_drift(const query::Source& source,
                                     const DriftOptions& options) {
  GPUVAR_REQUIRE(!source.empty());
  GPUVAR_REQUIRE(options.ewma_alpha > 0.0 && options.ewma_alpha <= 1.0);
  GPUVAR_REQUIRE(options.baseline_runs >= 1);
  GPUVAR_REQUIRE(options.min_runs > options.baseline_runs);

  // One gathering of the histories serves the noise estimate and the
  // per-GPU pass.
  const Histories histories = gpu_histories(source);
  const double noise_sigma = run_noise_ms(histories);

  std::vector<DriftFlag> flags;
  std::vector<double> early;
  for (std::uint32_t id : histories.groups.order) {
    const auto runs = histories.of(id);
    if (static_cast<int>(runs.size()) < options.min_runs) continue;

    early.clear();
    for (int i = 0; i < options.baseline_runs; ++i) {
      early.push_back(runs[static_cast<std::size_t>(i)].second);
    }
    const double baseline = stats::kernels::median_inplace(early);
    GPUVAR_ASSERT(baseline > 0.0);

    double ewma = baseline;
    for (std::size_t i = static_cast<std::size_t>(options.baseline_runs);
         i < runs.size(); ++i) {
      ewma = options.ewma_alpha * runs[i].second +
             (1.0 - options.ewma_alpha) * ewma;
    }

    const double drift = ewma - baseline;
    // The EWMA of m-effective samples has sd ≈ σ·sqrt(α/(2-α)); be
    // conservative and compare against one run's σ directly.
    const double sigmas = noise_sigma > 0.0
                              ? std::abs(drift) / noise_sigma
                              : (drift == 0.0 ? 0.0 : 1e18);
    if (sigmas >= options.threshold_sigmas &&
        std::abs(drift) / baseline >= options.min_drift_fraction) {
      const GpuRef& g = source.gpu(id);
      DriftFlag f;
      f.gpu_index = g.gpu_index;
      f.name = g.loc.name;
      f.runs = static_cast<int>(runs.size());
      f.baseline_ms = baseline;
      f.recent_ewma_ms = ewma;
      f.drift_pct = drift / baseline * 100.0;
      f.noise_sigmas = sigmas;
      flags.push_back(std::move(f));
    }
  }
  std::sort(flags.begin(), flags.end(),
            [](const DriftFlag& a, const DriftFlag& b) {
              // Magnitude descending, gpu_index breaking float ties.
              const double ka = std::abs(a.drift_pct);
              const double kb = std::abs(b.drift_pct);
              return ka != kb ? ka > kb : a.gpu_index < b.gpu_index;
            });
  return flags;
}

}  // namespace gpuvar
