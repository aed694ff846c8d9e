// Shared plumbing for the figure-reproduction binaries.
//
// Scale knobs (environment variables), so the same binaries serve quick
// smoke runs and full-fidelity reproductions:
//   GPUVAR_REPS    — SGEMM repetitions per run        (default 12)
//   GPUVAR_RUNS    — runs per GPU                     (default 2)
//   GPUVAR_SUMMIT  — Summit nodes per column          (default 2; 18 = full)
//   GPUVAR_ITERS   — training iterations for ML jobs  (default 60)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

// The figure binaries deliberately program against the umbrella — a
// bench file is a reproduction script, not a library layer — so this
// prelude re-exports it rather than making ~30 binaries spell out
// their header sets.
#include "gpuvar.hpp"  // IWYU pragma: export

namespace bench {

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

inline int sgemm_reps() { return env_int("GPUVAR_REPS", 12); }
inline int runs_per_gpu() { return env_int("GPUVAR_RUNS", 2); }
inline int summit_nodes_per_column() { return env_int("GPUVAR_SUMMIT", 2); }
inline int ml_iterations() { return env_int("GPUVAR_ITERS", 60); }

/// Builds a frame from row records (bench-local: the library's bulk
/// row adapters are gone; benches that synthesize or mutate row vectors
/// convert here before calling the frame-only analysis APIs).
inline gpuvar::RecordFrame frame_from(
    const std::vector<gpuvar::RunRecord>& rows) {
  gpuvar::RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

inline gpuvar::ExperimentResult sgemm_experiment(
    const gpuvar::Cluster& cluster, int day_of_week = -1) {
  const std::size_t n =
      cluster.sku().vendor == gpuvar::Vendor::kAmd ? 24576 : 25536;
  auto cfg = gpuvar::default_config(
      cluster, gpuvar::sgemm_workload(n, sgemm_reps()), runs_per_gpu());
  cfg.day_of_week = day_of_week;
  return gpuvar::run_experiment(cluster, cfg);
}

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

/// Prints the standard per-figure block: variability table, grouped box
/// charts for every metric, and the correlation summary.
inline void print_figure_block(const gpuvar::ExperimentResult& result,
                               gpuvar::GroupBy group) {
  using namespace gpuvar;
  const auto report = analyze_variability(result.frame);
  print_variability_table(std::cout, report);
  for (Metric m :
       {Metric::kPerf, Metric::kFreq, Metric::kPower, Metric::kTemp}) {
    std::cout << '\n';
    print_group_boxes(std::cout, result.frame, m, group);
  }
  print_section(std::cout, "metric correlations (scatter summaries)");
  print_correlation_table(std::cout, analyze_correlation(result.frame));
}

}  // namespace bench
