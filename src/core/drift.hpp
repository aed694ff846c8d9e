// Temporal drift detection for periodic variability benchmarking.
//
// §VII "Blacklisting, Maintenance": operators should benchmark
// periodically so a degrading GPU is caught *before* it gates every
// bulk-synchronous job scheduled onto it. Given a run history per GPU
// (ordered by run index — days or weeks of canary runs), this detector
// compares an exponentially weighted moving average of recent runs
// against the GPU's own early baseline, normalized by the population's
// run-to-run noise. A healthy GPU (the paper: "ill-performing GPUs are
// consistently ill-performing", i.e. *stable*) never trips it; a clogged
// heatsink or degrading VRM shows up as a sustained upward runtime trend.
#pragma once

#include <string>
#include <vector>

namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct DriftOptions {
  double ewma_alpha = 0.3;       ///< weight of the newest run
  int baseline_runs = 3;         ///< first runs forming the baseline
  int min_runs = 6;              ///< GPUs with fewer runs are skipped
  /// Flag when |EWMA - baseline| exceeds this many population noise
  /// sigmas AND this relative change.
  double threshold_sigmas = 4.0;
  double min_drift_fraction = 0.01;
};

struct DriftFlag {
  std::size_t gpu_index = 0;
  std::string name;
  int runs = 0;
  double baseline_ms = 0.0;   ///< median of the early runs
  double recent_ewma_ms = 0.0;
  double drift_pct = 0.0;     ///< (recent - baseline) / baseline * 100
  double noise_sigmas = 0.0;  ///< drift magnitude in noise units
};

/// Population run-to-run noise estimate: median absolute successive
/// difference of per-GPU runs, scaled to a sigma (MAD * 1.4826 / sqrt 2).
double estimate_run_noise_ms(const query::Source& source);

/// Detects sustained performance drift per GPU; returns flags sorted by
/// |drift| descending. Positive drift_pct = getting slower.
std::vector<DriftFlag> analyze_drift(const query::Source& source,
                                     const DriftOptions& options = {});

}  // namespace gpuvar
