// Figures 12 & 13: SGEMM on TACC Frontera (RTX 5000, mineral oil).
//
// Paper shape: 5% perf and 7% frequency variation; operating clocks higher
// than V100s; nearly all GPUs within ~5 W of the 230 W TDP; narrow but
// *warm* temperature band (Q3-Q1 ~ 4 C around ~76 C); two GPUs in cabinet
// c197 run 1100-1600 ms slower, ~16 C cooler and ~59 W lower — the
// degraded oil-pump incident; rho(perf,power) ~ -0.96.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figures 12-13", "SGEMM on TACC Frontera");
  Cluster frontera(frontera_spec());
  const auto result = bench::sgemm_experiment(frontera);
  bench::print_figure_block(result, GroupBy::kCabinet);

  print_section(std::cout, "Figure 13 scatter plots");
  print_scatter(std::cout, result.frame, Metric::kPower, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kTemp, Metric::kPower);

  print_section(std::cout, "pump-incident detection (SVII)");
  FlagOptions fopts;
  fopts.slowdown_temp = frontera.sku().slowdown_temp;
  const auto flags = analyze_flags(result.frame, fopts);
  print_flags(std::cout, flags);
  const auto med =
      stats::median(result.frame.metric(Metric::kPower));
  for (const auto& f : flags.gpus) {
    const auto& inst = frontera.gpu(f.gpu_index);
    if (inst.faults.has(FaultKind::kPumpFailure)) {
      std::printf("  -> %s confirmed: injected pump fault (cap %.0f W, "
                  "median power deficit %.0f W)\n",
                  f.name.c_str(), inst.power_cap.value(),
                  med - inst.power_cap.value());
    }
  }
  return 0;
}
