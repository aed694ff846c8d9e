// Figure 17: multi-GPU BERT-Large pre-training on Longhorn.
//
// Paper shape: median power ~40 W below ResNet-50's (BERT's GEMMs only
// utilize 40-50% of the GPU); large power variability (~87%) but only 8%
// performance variability; the performance outliers live in the same
// cabinet (c002) as ResNet's.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figure 17", "multi-GPU BERT on TACC Longhorn");
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(
      longhorn, bert_workload(std::max(10, bench::ml_iterations() / 2)),
      bench::runs_per_gpu());
  const auto result = run_campaign(longhorn, cfg);
  bench::print_figure_block(result, GroupBy::kCabinet);

  print_section(std::cout, "BERT vs ResNet power (Takeaway 6)");
  auto rcfg = default_config(
      longhorn, resnet50_multi_workload(bench::ml_iterations()), 1);
  rcfg.node_coverage = 0.5;
  const auto resnet = run_campaign(longhorn, rcfg);
  const double bert_p =
      stats::median(result.frame.metric(Metric::kPower));
  const double resnet_p =
      stats::median(resnet.frame.metric(Metric::kPower));
  std::printf(
      "  median power: BERT %.0f W vs ResNet %.0f W (delta %.0f W; paper "
      "~40 W)\n",
      bert_p, resnet_p, resnet_p - bert_p);

  print_section(std::cout, "shared outliers with ResNet (Takeaway 6)");
  FlagOptions fopts;
  fopts.slowdown_temp = longhorn.sku().slowdown_temp;
  const std::vector<FlagReport> reports{
      analyze_flags(result.frame, fopts),
      analyze_flags(resnet.frame, fopts)};
  const auto offenders = repeat_offenders(reports, 2);
  std::printf("  %zu GPUs flagged by BOTH BERT and ResNet-50\n",
              offenders.size());
  return 0;
}
