// Extension (§VII "Blacklisting, Maintenance"): temporal drift detection
// over a multi-week canary history. A healthy fleet must stay silent
// (the paper: variability is persistent, not transient); a GPU whose
// cooling degrades over the campaign must be caught early.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Extension",
                      "performance-drift detection over a campaign");
  Cluster vortex(vortex_spec());

  // A 10-"week" canary history across a quarter of the cluster.
  std::vector<RunRecord> history;
  for (int week = 0; week < 10; ++week) {
    auto cfg = default_config(vortex, sgemm_workload(25536, 6), 1);
    cfg.node_coverage = 0.25;
    cfg.salt = static_cast<std::uint64_t>(week);
    const auto frame = run_experiment(vortex, cfg).frame;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      RunRecord r = frame.row(i);
      r.run_index = week;
      history.push_back(std::move(r));
    }
  }
  std::printf("history: %zu records; estimated run noise sigma: %.2f ms\n",
              history.size(),
              estimate_run_noise_ms(bench::frame_from(history)));

  const auto clean = analyze_drift(bench::frame_from(history));
  std::printf("healthy fleet: %zu drift flags (expected 0 — the paper's "
              "variability is persistent, not drifting)\n",
              clean.size());

  // Inject a slow cooling degradation into one GPU's history: +0.6%
  // runtime per week (a clogging heatsink).
  auto degraded = history;
  const std::size_t victim = degraded.front().gpu_index;
  std::string victim_name;
  for (auto& r : degraded) {
    if (r.gpu_index == victim) {
      victim_name = r.loc.name;
      r.perf_ms *= 1.0 + 0.006 * r.run_index;
    }
  }
  const auto flags = analyze_drift(bench::frame_from(degraded));
  std::printf("\nafter injecting +0.6%%/week degradation into %s:\n",
              victim_name.c_str());
  for (const auto& f : flags) {
    std::printf("  DRIFT %s: baseline %.0f ms -> recent %.0f ms "
                "(%+.2f%%, %.1f noise sigmas over %d runs)\n",
                f.name.c_str(), f.baseline_ms, f.recent_ewma_ms,
                f.drift_pct, f.noise_sigmas, f.runs);
  }
  std::printf("\n%s\n",
              flags.size() == 1 && flags.front().gpu_index == victim
                  ? "-> exactly the degraded GPU was caught, weeks before "
                    "it would gate bulk-synchronous jobs"
                  : "-> UNEXPECTED detection result");
  return 0;
}
