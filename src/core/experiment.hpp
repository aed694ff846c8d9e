// The campaign configuration: the paper's data-collection campaign in
// code.
//
// An ExperimentConfig names a workload, the runs per GPU, the node
// coverage and the run options; run_campaign (core/engine.hpp) executes
// it — allocating nodes exclusively, running each GPU the configured
// number of times after the workload's warm-up, and merging the
// records into one RecordFrame. Node jobs are independent, so they
// execute in parallel on the host thread pool; determinism is preserved
// because every random draw is keyed by (cluster seed, GPU path, run
// index), never by scheduling order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace gpuvar { class Cluster; }  // was: #include "cluster/cluster.hpp"
namespace gpuvar { class ThreadPool; }  // was: #include "common/thread_pool.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {

/// Campaign progress callback: (node jobs completed, node jobs total).
/// Invoked from pool worker threads as each node job finishes, so it
/// must be cheap and must not touch the pool (no submit/wait from
/// inside the callback).
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

struct ExperimentConfig {
  WorkloadSpec workload;
  int runs_per_gpu = 3;
  /// Fraction of nodes measured (the paper covers >90% of each cluster).
  double node_coverage = 1.0;
  RunOptions run_options;
  /// Day-of-week tag stamped on the records (-1 = untagged); also folded
  /// into the run seeds so different days draw fresh transient noise.
  int day_of_week = -1;
  /// Extra salt for independent repetitions of the same campaign.
  std::uint64_t salt = 0;
  /// Called as node jobs complete (long campaigns: summit is 27k GPUs).
  /// Null = no reporting. Calls are serialized; counts are monotone.
  ProgressFn progress;
  /// Pool to parallelize node jobs on; null = the process-global pool.
  /// Results are byte-identical for any pool size (the determinism_replay
  /// test pins this): records land in per-node buckets concatenated in
  /// node order, and every random draw is seed-path-keyed.
  ThreadPool* pool = nullptr;
};

/// Convenience: a ready-to-run config with sensible defaults for a SKU
/// (tick at the control period, summary-only telemetry).
ExperimentConfig default_config(const Cluster& cluster,
                                WorkloadSpec workload, int runs_per_gpu = 3);

}  // namespace gpuvar
