// Prints hash_frame_shard of two fixed campaigns, one per line as
// "<name> <hash>". Together they cover both shapes of the simulator's
// tick loop: long compute-bound SGEMM kernels that hover at the power
// cap, and short bulk-synchronous ResNet kernels with barrier idles.
// paper_golden.sh compares these lines, as they are, to its table.
#include <cstdint>
#include <cstdio>

#include "cluster/cluster.hpp"
#include "core/cli.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "telemetry/shard.hpp"

int main() {
  struct Case {
    const char* cluster;
    const char* workload;
    double coverage;
  };
  const Case cases[] = {
      {"longhorn", "sgemm", 1.0},
      {"summit-full", "resnet-multi", 0.02},
  };
  for (const Case& c : cases) {
    const gpuvar::Cluster cluster(gpuvar::cli::cluster_by_name(c.cluster));
    auto cfg = gpuvar::default_config(
        cluster, gpuvar::cli::workload_by_name(c.workload), 2);
    cfg.node_coverage = c.coverage;
    const auto result = gpuvar::run_campaign(cluster, cfg);
    std::printf("%s/%s@%.2f %016llx\n", c.cluster, c.workload, c.coverage,
                static_cast<unsigned long long>(
                    gpuvar::hash_frame_shard(result.frame, 0)));
  }
  return 0;
}
