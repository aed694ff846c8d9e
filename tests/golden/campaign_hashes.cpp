// Prints hash_frame_shard of four fixed campaigns, one per line as
// "<name> <hash>". Together they cover the shapes of the simulator's
// tick loop: long compute-bound SGEMM kernels that hover at the power
// cap, short bulk-synchronous ResNet kernels with barrier idles, and
// memory-bound PageRank kernels that run below the cap.
//
// A frame keeps only binned medians and perf_ms, so a last-ulp change
// in power or temperature can leave every frame hash as it was. The
// last lines therefore hash, per workload, the raw bits of every double
// of every GpuRunResult that run_on_node returns for a few summit-full
// nodes, at the default cap and at 200 W.
//
// paper_golden.sh compares these lines, as they are, to its table.
#include <cstdint>
#include <cstdio>
#include <string>

#include "cluster/cluster.hpp"
#include "common/binio.hpp"
#include "common/units.hpp"
#include "core/cli.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "gpu/sampler.hpp"
#include "telemetry/run_result.hpp"
#include "telemetry/shard.hpp"
#include "workloads/runner.hpp"

namespace {

void append_metric(std::string& out, const gpuvar::MetricSummary& m) {
  for (const double v : {m.median, m.mean, m.min, m.max}) {
    gpuvar::binio::append_f64(out, v);
  }
}

void append_result(std::string& out, const gpuvar::GpuRunResult& r) {
  gpuvar::binio::append_u64(out, r.gpu_index);
  gpuvar::binio::append_i32(out, r.run_index);
  gpuvar::binio::append_f64(out, r.perf_ms);
  gpuvar::binio::append_u64(out, r.iteration_ms.size());
  for (const double v : r.iteration_ms) gpuvar::binio::append_f64(out, v);
  append_metric(out, r.telemetry.freq);
  append_metric(out, r.telemetry.power);
  append_metric(out, r.telemetry.temp);
  gpuvar::binio::append_f64(out, r.telemetry.duration.value());
  gpuvar::binio::append_f64(out, r.telemetry.energy.value());
  for (const double v : {r.counters.fu_util, r.counters.dram_util,
                         r.counters.mem_stall_frac,
                         r.counters.exec_stall_frac}) {
    gpuvar::binio::append_f64(out, v);
  }
}

}  // namespace

int main() {
  struct Case {
    const char* cluster;
    const char* workload;
    double coverage;
  };
  const Case cases[] = {
      {"longhorn", "sgemm", 1.0},
      {"summit-full", "resnet-multi", 0.02},
      {"summit-full", "sgemm", 0.02},
      {"summit-full", "pagerank", 0.02},
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

  const gpuvar::Cluster summit(gpuvar::cli::cluster_by_name("summit-full"));
  const int nodes[] = {0, 1043, 2087, 3131, 4175};
  for (const char* name : {"sgemm", "resnet-multi", "pagerank"}) {
    const auto workload = gpuvar::cli::workload_by_name(name);
    gpuvar::binio::Fnv1a64 hash;
    std::string bytes;
    for (const double cap_w : {0.0, 200.0}) {
      auto opts = gpuvar::RunOptions::for_sku(summit.sku());
      opts.power_limit_override = gpuvar::Watts{cap_w};
      for (const int node : nodes) {
        for (int run = 0; run < 2; ++run) {
          bytes.clear();
          for (const auto& r :
               gpuvar::run_on_node(summit, node, workload, run, opts)) {
            append_result(bytes, r);
          }
          hash.update(bytes);
        }
      }
    }
    std::printf("summit-full/%s/run_on_node-exact %016llx\n", name,
                static_cast<unsigned long long>(hash.digest()));
  }
  return 0;
}
