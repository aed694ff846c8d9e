// Figures 2 & 3: SGEMM on TACC Longhorn — box plots of all four metrics
// (coloured by cabinet in the paper; grouped by cabinet here) and the
// metric-pair scatter plots with their Pearson correlations.
//
// Paper shape: 9% perf variation; GPUs settle at 1300-1440 MHz despite a
// 1530 MHz configuration; >30 C temperature spread; power outliers near
// 250 W; rho(perf,freq) ~ -0.97, rho(perf,temp) ~ +0.46 (weak),
// rho(perf,power) ~ -0.35, rho(power,temp) ~ -0.1.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figures 2-3", "SGEMM on TACC Longhorn");
  Cluster longhorn(longhorn_spec());
  const auto result = bench::sgemm_experiment(longhorn);
  bench::print_figure_block(result, GroupBy::kCabinet);

  print_section(std::cout, "Figure 3 scatter plots");
  print_scatter(std::cout, result.frame, Metric::kTemp, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kPower, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kFreq, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kTemp, Metric::kPower);

  print_section(std::cout, "operator early-warning report (SVII)");
  FlagOptions fopts;
  fopts.slowdown_temp = longhorn.sku().slowdown_temp;
  print_flags(std::cout, analyze_flags(result.frame, fopts));
  return 0;
}
