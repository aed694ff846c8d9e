// Figure 18: LAMMPS (REAXC, input (8,16,16)) on Longhorn.
//
// Paper shape: median power <= ~180 W (never near TDP); frequency pinned
// at 1530 MHz; performance varies by <1%; yet power varies ~20% and the
// temperature Q1..Q3 spread is ~8 C. High energy draw without performance
// return — memory-bound work doesn't stress the TDP.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figure 18", "LAMMPS REAXC on TACC Longhorn");
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(longhorn, lammps_workload(5),
                            bench::runs_per_gpu());
  const auto result = run_campaign(longhorn, cfg);
  bench::print_figure_block(result, GroupBy::kCabinet);

  const auto report = analyze_variability(result.frame);
  print_section(std::cout, "Takeaway 7 checks");
  std::printf("  perf variation %.2f%% (paper <1%%), power variation %.1f%% "
              "(paper ~20%%), freq median %.0f MHz (pinned)\n",
              report.perf.variation_pct, report.power.variation_pct,
              report.freq.box.median);
  std::printf("  median power %.0f W — far below the 300 W TDP\n",
              report.power.box.median);

  // Energy-efficiency observation: memory-bound kernels burn energy
  // without performance return on the worst GPUs.
  print_section(std::cout, "placement advice from counters (SVII)");
  const auto advice = advise_placement(result.frame.counters(0));
  std::printf("  class: %s — %s\n", to_string(advice.app_class).c_str(),
              advice.note.c_str());
  return 0;
}
