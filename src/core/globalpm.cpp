#include "core/globalpm.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "gpu/power_model.hpp"
#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "core/engine.hpp"
#include "core/record.hpp"
#include "gpu/kernel.hpp"
#include "telemetry/frame.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {

Watts PowerAssignment::total() const {
  Watts sum{};
  for (Watts w : limits) sum += w;
  return sum;
}

PowerAssignment uniform_assignment(const Cluster& cluster, Watts envelope) {
  GPUVAR_REQUIRE(envelope > Watts{});
  GPUVAR_REQUIRE(cluster.size() > 0);
  PowerAssignment a;
  const Watts each =
      std::min(cluster.sku().tdp,
               envelope / static_cast<double>(cluster.size()));
  a.limits.assign(cluster.size(), each);
  return a;
}

Watts predicted_steady_power(const Cluster& cluster, std::size_t i,
                             const KernelSpec& kernel, MegaHertz f) {
  const auto& inst = cluster.gpu(i);
  PowerModel pm(cluster.sku(), inst.silicon);
  const double activity =
      effective_activity(kernel, cluster.sku(), inst.silicon, f);
  // Thermal/leakage fixed point at this operating point.
  Celsius t = inst.thermal.coolant;
  for (int it = 0; it < 40; ++it) {
    const Watts p = pm.total_power(f, activity, t);
    const Celsius next =
        inst.thermal.coolant + Celsius{p.value() * inst.thermal.r_c_per_w};
    if (abs(next - t) < Celsius{1e-6}) break;
    t = next;
  }
  return pm.total_power(f, activity, t);
}

PowerAssignment equal_frequency_assignment(const Cluster& cluster,
                                           Watts envelope,
                                           const KernelSpec& kernel) {
  GPUVAR_REQUIRE(envelope > Watts{});
  kernel.validate();
  const auto ladder = cluster.sku().frequency_ladder();

  // Highest common frequency whose total predicted power fits.
  PowerAssignment best;
  std::vector<Watts> predicted(cluster.size(), Watts{});
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    const MegaHertz f = *it;
    Watts total{};
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      predicted[i] = predicted_steady_power(cluster, i, kernel, f);
      total += predicted[i];
    }
    if (total <= envelope) {
      best.target_freq = f;
      best.limits.resize(cluster.size());
      // Distribute the leftover headroom evenly so Σ limits == envelope.
      const Watts spare =
          (envelope - total) / static_cast<double>(cluster.size());
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        best.limits[i] = std::min(cluster.sku().tdp, predicted[i] + spare);
      }
      return best;
    }
  }
  // Envelope below even the floor state: fall back to uniform.
  return uniform_assignment(cluster, envelope);
}

CampaignResult run_under_assignment(const Cluster& cluster,
                                    const WorkloadSpec& workload,
                                    const PowerAssignment& assignment,
                                    int runs_per_gpu) {
  workload.validate();
  GPUVAR_REQUIRE_MSG(workload.gpus_per_job == 1,
                     "per-GPU assignments need single-GPU jobs");
  GPUVAR_REQUIRE(assignment.limits.size() == cluster.size());
  GPUVAR_REQUIRE(runs_per_gpu >= 1);

  FrameBuilder builder(cluster.size());
  parallel_for(cluster.size(), [&](std::size_t gi) {
    RunOptions opts = RunOptions::for_sku(cluster.sku());
    opts.power_limit_override = assignment.limits[gi];
    for (int run = 0; run < runs_per_gpu; ++run) {
      const auto res = run_on_gpu(cluster, gi, workload, run, opts);
      builder.bucket(gi).append_row(to_record(cluster, res));
    }
  });

  CampaignResult out;
  out.nodes_measured = static_cast<std::size_t>(cluster.node_count());
  out.frame = builder.finish();
  out.gpus_measured = cluster.size();
  return out;
}

}  // namespace gpuvar
