// Figure 16: single-GPU ResNet-50 (batch scaled 64 -> 16).
//
// Paper shape: frequency pinned at 1530 MHz; absolute iteration times and
// power lower than the 4-GPU runs; still 14% performance and ~24% power
// variation — but the degradation is milder than multi-GPU because no
// bulk-synchronous barrier amplifies the slowest rank.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figure 16", "single-GPU ResNet-50 on Longhorn");
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(
      longhorn, resnet50_single_workload(bench::ml_iterations()),
      bench::runs_per_gpu());
  const auto single = run_campaign(longhorn, cfg);
  bench::print_figure_block(single, GroupBy::kCabinet);

  print_section(std::cout, "bulk-synchronous amplification (Takeaway 5)");
  auto multi_cfg = default_config(
      longhorn, resnet50_multi_workload(bench::ml_iterations()), 1);
  const auto multi = run_campaign(longhorn, multi_cfg);
  const auto s = analyze_variability(single.frame);
  const auto m = analyze_variability(multi.frame);
  std::printf(
      "  perf variation: single-GPU %.1f%% vs multi-GPU %.1f%% "
      "(paper: 14%% vs 22%%)\n",
      s.perf.variation_pct, m.perf.variation_pct);
  std::printf(
      "  median iteration: single %.0f ms vs multi %.0f ms "
      "(multi does 4x the work per iteration)\n",
      s.perf.box.median, m.perf.box.median);
  return 0;
}
