// Figures 6 & 7: SGEMM on LLNL Corona (AMD MI60, air cooled).
//
// Paper shape: 7% runtime variation; much coarser frequency levels than
// V100s (weaker perf-freq coupling); power never reaches the 300 W TDP;
// temperatures close to the 100 C slowdown threshold; one severe outlier
// node (c115) drawing only ~165 W.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figures 6-7", "SGEMM on LLNL Corona (AMD MI60)");
  Cluster corona(corona_spec());
  const auto result = bench::sgemm_experiment(corona);
  bench::print_figure_block(result, GroupBy::kCabinet);

  print_section(std::cout, "Figure 7 scatter plots");
  print_scatter(std::cout, result.frame, Metric::kTemp, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kPower, Metric::kPerf);

  print_section(std::cout, "outlier-node drilldown (the paper's c115)");
  const auto gpus = per_gpu_medians(result.frame);
  const auto power_box =
      stats::box_summary(result.frame.metric(Metric::kPower));
  for (const auto& g : gpus) {
    if (g.power_w < power_box.lo_whisker - 20.0) {
      std::printf(
          "  %s: %.0f ms at %.0f W, %.0f MHz, %.0f C — severe power outlier;"
          " replacement candidate\n",
          g.loc.name.c_str(), g.perf_ms, g.power_w, g.freq_mhz, g.temp_c);
    }
  }

  print_section(std::cout, "MI60 vs V100 frequency ladder coarseness");
  std::printf("  MI60 step: %.0f MHz, V100 step: %.1f MHz (SIV-D)\n",
              make_mi60().ladder_step_mhz, make_v100_sxm2().ladder_step_mhz);
  return 0;
}
