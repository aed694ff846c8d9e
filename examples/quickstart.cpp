// Quickstart: measure SGEMM variability on a small cluster and print the
// paper-style analysis. Start here.
//
//   $ ./quickstart
//
// The flow is always the same four steps:
//   1. build (or describe) a cluster
//   2. pick a workload
//   3. run the campaign
//   4. analyze: variability, correlations, flags
#include <iostream>

#include "gpuvar.hpp"

int main() {
  using namespace gpuvar;

  // 1. A cluster: CloudLab's 12 air-cooled V100s (Table I). Factories for
  //    Longhorn, Summit, Corona, Vortex and Frontera exist too — or build
  //    your own ClusterSpec.
  Cluster cluster(cloudlab_spec());
  std::cout << "cluster: " << cluster.name() << " with " << cluster.size()
            << "x " << cluster.sku().name << "\n";

  // 2. A workload: 12 repetitions of the paper's 25536^3 SGEMM.
  const WorkloadSpec workload = sgemm_workload(25536, 12);

  // 3. The campaign: 3 runs per GPU, exclusive nodes, warm-up included.
  const ExperimentConfig config = default_config(cluster, workload, 3);
  const ExperimentResult result = run_experiment(cluster, config);
  std::cout << "collected " << result.frame.size() << " runs across "
            << result.gpus_measured << " GPUs\n";

  // 4a. Variability: the paper's box/IQR statistics per metric.
  print_section(std::cout, "variability");
  print_variability_table(std::cout, analyze_variability(result.frame));

  // 4b. Correlations: who tracks whom.
  print_section(std::cout, "correlations");
  print_correlation_table(std::cout, analyze_correlation(result.frame));

  // 4c. Per-GPU box chart, one row per node.
  print_section(std::cout, "kernel duration by node");
  print_group_boxes(std::cout, result.frame, Metric::kPerf,
                    GroupBy::kNode);

  // 4d. Anything an operator should look at?
  print_section(std::cout, "flags");
  FlagOptions opts;
  opts.slowdown_temp = cluster.sku().slowdown_temp;
  print_flags(std::cout, analyze_flags(result.frame, opts));
  return 0;
}
