// Operator workflow (§VII "Blacklisting, Maintenance"): run periodic
// variability benchmarking across a cluster, flag anomalous GPUs and
// suspect cabinets, cross-check against a second workload, and score the
// audit against the simulator's injected ground truth.
//
// This is exactly the loop that let the paper's authors hand TACC and
// LLNL actionable lists of nodes to investigate.
#include <iostream>

#include "gpuvar.hpp"

int main(int argc, char** argv) {
  using namespace gpuvar;
  const std::string which = argc > 1 ? argv[1] : "longhorn";
  ClusterSpec spec = which == "frontera" ? frontera_spec()
                     : which == "corona" ? corona_spec()
                                         : longhorn_spec();
  Cluster cluster(std::move(spec));
  std::cout << "auditing " << cluster.name() << " (" << cluster.size()
            << " GPUs)\n";

  const std::size_t n =
      cluster.sku().vendor == Vendor::kAmd ? 24576 : 25536;

  // Campaign 1: the SGEMM canary (compute-bound, clock-sensitive).
  auto sgemm_cfg = default_config(cluster, sgemm_workload(n, 10), 2);
  const auto sgemm_result = run_campaign(cluster, sgemm_cfg);

  // Campaign 2: a balanced ML job — outliers that repeat across both are
  // hardware, not workload artifacts.
  auto ml_cfg = default_config(cluster, resnet50_multi_workload(25), 1);
  const auto ml_result = run_campaign(cluster, ml_cfg);

  FlagOptions opts;
  opts.slowdown_temp = cluster.sku().slowdown_temp;
  const auto sgemm_flags = analyze_flags(sgemm_result.frame, opts);
  const auto ml_flags = analyze_flags(ml_result.frame, opts);

  print_section(std::cout, "SGEMM canary flags");
  print_flags(std::cout, sgemm_flags);
  print_section(std::cout, "ML workload flags");
  print_flags(std::cout, ml_flags);

  print_section(std::cout, "repeat offenders (flagged by both)");
  const std::vector<FlagReport> reports{sgemm_flags, ml_flags};
  const auto offenders = repeat_offenders(reports, 2);
  if (offenders.empty()) {
    std::cout << "  none — single-workload flags may be workload artifacts\n";
  }
  for (const auto& f : offenders) {
    const auto& inst = cluster.gpu(f.gpu_index);
    std::cout << "  " << f.name << " (severity " << f.severity << ")";
    if (inst.faults.any()) {
      std::cout << "  [ground truth:";
      for (const auto k : inst.faults.kinds) std::cout << " " << to_string(k);
      std::cout << "]";
    }
    std::cout << "\n";
  }

  print_section(std::cout, "audit score vs injected ground truth");
  const auto score = score_against_ground_truth(cluster, sgemm_flags);
  std::cout << "  true positives: " << score.true_positives
            << ", false positives: " << score.false_positives
            << ", false negatives: " << score.false_negatives << "\n"
            << "  precision " << score.precision << ", recall "
            << score.recall
            << "  (false positives are often organic anomalies — hot "
               "aisles, bottom-bin silicon — that also merit a look)\n";
  return 0;
}
