// Ablation: fast-forward accuracy and speedup. Runs the same SGEMM
// campaign with and without the steady-state fast path and compares both
// the wall-clock cost and the resulting statistics. The fast path must be
// a pure optimization: the analysis results should be indistinguishable.
#include <chrono>

#include "bench_util.hpp"

using namespace gpuvar;

namespace {

struct Outcome {
  double wall_s = 0.0;
  VariabilityReport report;
};

Outcome campaign(const Cluster& cluster, bool fast_forward) {
  auto cfg = default_config(
      cluster, sgemm_workload(25536, bench::sgemm_reps()), 1);
  cfg.run_options.sim.fast_forward = fast_forward;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = run_campaign(cluster, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  Outcome o;
  o.wall_s = std::chrono::duration<double>(t1 - t0).count();
  o.report = analyze_variability(result.frame);
  return o;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "fast-forward accuracy & speedup");
  Cluster vortex(vortex_spec());
  const auto fast = campaign(vortex, true);
  const auto full = campaign(vortex, false);

  std::printf("%-14s %12s %12s %12s\n", "mode", "perf med", "perf var %",
              "power med");
  std::printf("%-14s %12.1f %12.2f %12.1f\n", "full-tick",
              full.report.perf.box.median, full.report.perf.variation_pct,
              full.report.power.box.median);
  std::printf("%-14s %12.1f %12.2f %12.1f\n", "fast-forward",
              fast.report.perf.box.median, fast.report.perf.variation_pct,
              fast.report.power.box.median);
  std::printf("\nperf-median delta: %.3f%%;  variation delta: %.2f points\n",
              (fast.report.perf.box.median / full.report.perf.box.median -
               1.0) * 100.0,
              fast.report.perf.variation_pct -
                  full.report.perf.variation_pct);
  // Host timings vary run to run: they go on marker lines only.
  std::printf("%s wall s: full-tick %.2f, fast-forward %.2f\n",
              bench::kWallClockMarker, full.wall_s, fast.wall_s);
  std::printf("%s speedup: %.1fx\n", bench::kWallClockMarker,
              full.wall_s / std::max(1e-9, fast.wall_s));
  return 0;
}
