// A global power-management prototype (§VII "New Hardware and System
// Design"): today each GPU enforces its TDP locally, so under a
// cluster-wide power envelope every chip gets the same cap and the silicon
// lottery decides who runs fast. With PM information exposed (see
// gpu/pmapi.hpp), a coordinator can instead assign *per-GPU* limits
// so that every chip settles at the same frequency — trading a little
// peak speed on golden chips for a cluster that behaves uniformly (which
// is what bulk-synchronous workloads actually pay for).
#pragma once

#include <vector>

namespace gpuvar { class Cluster; }  // was: #include "cluster/cluster.hpp"
#include "core/engine.hpp"
#include "common/units.hpp"
namespace gpuvar { struct WorkloadSpec; }  // was: #include "workloads/workload.hpp"
namespace gpuvar { struct KernelSpec; }  // was: #include "gpu/kernel.hpp"

namespace gpuvar {

struct PowerAssignment {
  std::vector<Watts> limits;  ///< one per GPU (cluster order)
  MegaHertz target_freq{};  ///< equal-frequency policies only
  Watts total() const;
};

/// Everyone gets envelope / N — the status quo of local-only PM.
PowerAssignment uniform_assignment(const Cluster& cluster, Watts envelope);

/// Predicted steady-state power of GPU `i` running `kernel` pinned at
/// frequency `f` (solves the thermal/leakage fixed point).
Watts predicted_steady_power(const Cluster& cluster, std::size_t i,
                             const KernelSpec& kernel, MegaHertz f);

/// Equal-frequency coordination: find the highest ladder frequency whose
/// total predicted power fits the envelope, then cap each GPU just above
/// its own predicted draw at that frequency. Requires PM introspection in
/// deployment; here the predictions come from the same models the chips
/// obey.
PowerAssignment equal_frequency_assignment(const Cluster& cluster,
                                           Watts envelope,
                                           const KernelSpec& kernel);

/// Runs a campaign with per-GPU limits from the assignment (every GPU,
/// in memory; config_hash and stats stay zero).
CampaignResult run_under_assignment(const Cluster& cluster,
                                    const WorkloadSpec& workload,
                                    const PowerAssignment& assignment,
                                    int runs_per_gpu = 1);

}  // namespace gpuvar
