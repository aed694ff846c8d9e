// Application-aware placement (§VII "Application-aware Frameworks"):
// classify workloads from their profiler counters, rank the cluster's
// nodes by measured variability, and assign clock-sensitive jobs to the
// stable nodes while memory-bound jobs absorb the variable ones.
#include <algorithm>
#include <iostream>

#include "gpuvar.hpp"

int main() {
  using namespace gpuvar;
  Cluster cluster(longhorn_spec());
  std::cout << "profiling node quality on " << cluster.name() << "...\n";

  // Step 1: a quick SGEMM canary gives each node a quality score (median
  // settled frequency — the paper's strongest predictor of performance).
  auto cfg = default_config(cluster, sgemm_workload(25536, 8), 1);
  const auto result = run_campaign(cluster, cfg);

  struct NodeQuality {
    int node;
    double median_freq;
    double median_perf;
  };
  std::map<int, std::vector<std::size_t>> by_node;
  for (std::size_t i = 0; i < result.frame.size(); ++i) {
    by_node[result.frame.loc(i).node].push_back(i);
  }
  std::vector<NodeQuality> nodes;
  for (const auto& [node, rows] : by_node) {
    std::vector<double> freq, perf;
    for (std::size_t i : rows) {
      freq.push_back(result.frame.freq_mhz()[i]);
      perf.push_back(result.frame.perf_ms()[i]);
    }
    nodes.push_back(NodeQuality{node, stats::median(freq),
                                stats::median(perf)});
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const NodeQuality& a, const NodeQuality& b) {
              return a.median_freq > b.median_freq;
            });

  std::cout << "best nodes:  ";
  for (std::size_t i = 0; i < 5; ++i) {
    std::cout << "n" << nodes[i].node << " (" << nodes[i].median_freq
              << " MHz) ";
  }
  std::cout << "\nworst nodes: ";
  for (std::size_t i = nodes.size() - 5; i < nodes.size(); ++i) {
    std::cout << "n" << nodes[i].node << " (" << nodes[i].median_freq
              << " MHz) ";
  }
  std::cout << "\n";

  // Step 2: classify the queue's applications from their counters and
  // advise placement.
  print_section(std::cout, "queue classification & placement");
  const auto sku = make_v100_sxm2();
  const SiliconSample typical;
  for (const auto& w :
       {sgemm_workload(), resnet50_multi_workload(), bert_workload(),
        lammps_workload(), pagerank_workload()}) {
    CounterAccumulator acc;
    for (const auto& step : w.iteration) {
      acc.add(step.kernel,
              kernel_time_at(step.kernel, sku, typical, sku.max_mhz) *
                  step.count);
    }
    const auto advice = advise_placement(acc.aggregate());
    std::cout << "  " << w.name << ": " << to_string(advice.app_class)
              << " -> "
              << (advice.tolerates_variable_nodes
                      ? "schedule on WORST nodes (no penalty)"
                      : "schedule on BEST nodes")
              << "  [" << advice.note << "]\n";
  }

  // Step 3: quantify the win — run PageRank on the worst node and SGEMM
  // on the best, versus the reverse assignment.
  print_section(std::cout, "placement win quantified");
  const int best = nodes.front().node;
  const int worst = nodes.back().node;
  const auto opts = RunOptions::for_sku(cluster.sku());
  auto perf_of = [&](const WorkloadSpec& w, int node) {
    return run_on_node(cluster, node, w, 0, opts).front().perf_ms;
  };
  const auto sgemm = sgemm_workload(25536, 6);
  const auto pr = pagerank_workload(10);
  const double good = perf_of(sgemm, best) + perf_of(pr, worst);
  const double bad = perf_of(sgemm, worst) + perf_of(pr, best);
  std::cout << "  SGEMM@best + PageRank@worst: " << good << " ms total\n"
            << "  SGEMM@worst + PageRank@best: " << bad << " ms total\n"
            << "  variability-aware placement saves "
            << (bad - good) / bad * 100.0 << "% wall-clock\n";
  return 0;
}
