#include "core/experiment.hpp"

#include <utility>

#include "cluster/cluster.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {

ExperimentConfig default_config(const Cluster& cluster, WorkloadSpec workload,
                                int runs_per_gpu) {
  ExperimentConfig cfg;
  cfg.workload = std::move(workload);
  cfg.runs_per_gpu = runs_per_gpu;
  cfg.run_options = RunOptions::for_sku(cluster.sku());
  return cfg;
}

}  // namespace gpuvar
