// Figures 14 & 15: multi-GPU ResNet-50 training on Longhorn.
//
// Paper shape: the *largest* performance variation of the study (22%);
// frequency pinned at 1530 MHz for most nodes; enormous power variability
// (~104%) including stragglers as low as 76 W; rho(perf,freq) ~ -0.01 and
// rho(perf,power) ~ -0.48; the SGEMM outlier cabinet (c002) reappears.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figures 14-15",
                      "multi-GPU ResNet-50 on TACC Longhorn");
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(
      longhorn, resnet50_multi_workload(bench::ml_iterations()),
      bench::runs_per_gpu());
  const auto result = run_campaign(longhorn, cfg);
  bench::print_figure_block(result, GroupBy::kCabinet);

  print_section(std::cout, "Figure 15 scatter plots");
  print_scatter(std::cout, result.frame, Metric::kFreq, Metric::kPerf);
  print_scatter(std::cout, result.frame, Metric::kPower, Metric::kPerf);

  print_section(std::cout, "cross-workload repeat offenders (Takeaway 5)");
  const auto sgemm_result = bench::sgemm_experiment(longhorn);
  FlagOptions fopts;
  fopts.slowdown_temp = longhorn.sku().slowdown_temp;
  const std::vector<FlagReport> reports{
      analyze_flags(sgemm_result.frame, fopts),
      analyze_flags(result.frame, fopts)};
  const auto offenders = repeat_offenders(reports, 2);
  std::printf("  %zu GPUs flagged by BOTH SGEMM and ResNet-50:\n",
              offenders.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(8, offenders.size());
       ++i) {
    std::printf("    %s (severity %.1f)\n", offenders[i].name.c_str(),
                offenders[i].severity);
  }

  print_section(std::cout, "user impact (SVII)");
  std::printf("  %-6s %18s %18s %16s\n", "GPUs", "P(any >6% slow)",
              "E[slowdown]", "P95 slowdown");
  for (const auto& row : analyze_user_impact(result.frame)) {
    std::printf("  %-6d %17.0f%% %17.2fx %15.2fx\n", row.gpus_per_job,
                row.p_any_slow * 100.0, row.expected_slowdown,
                row.p95_slowdown);
  }
  return 0;
}
