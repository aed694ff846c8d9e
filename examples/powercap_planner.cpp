// Power-budget planning (§VI-B + the 20 MW exascale constraint): sweep
// cluster-wide power caps and report the throughput / energy / fairness
// trade-off, including how much *more* variable the cluster becomes at
// low caps — the effect the paper measured on CloudLab.
#include <iostream>

#include "gpuvar.hpp"

int main() {
  using namespace gpuvar;
  Cluster cluster(cloudlab_spec());
  std::cout << "power-cap planning on " << cluster.name() << " ("
            << cluster.size() << " GPUs)\n\n";

  std::printf("%8s %12s %10s %12s %12s %10s\n", "cap (W)", "median ms",
              "var %", "J / kernel", "GFLOP/s/W", "cluster W");
  const double flops = 2.0 * 25536.0 * 25536.0 * 25536.0;

  for (double cap : {300.0, 250.0, 200.0, 175.0, 150.0, 125.0, 100.0}) {
    auto cfg = default_config(cluster, sgemm_workload(25536, 8), 2);
    cfg.run_options.power_limit_override = Watts{cap};
    const auto result = run_campaign(cluster, cfg);
    const auto rep = analyze_variability(result.frame);

    const double med_s = rep.perf.box.median / 1e3;
    const double med_power = rep.power.box.median;
    const double joules = med_power * med_s;
    const double eff = flops / med_s / med_power * 1e-9;
    std::printf("%8.0f %12.0f %10.2f %12.0f %12.2f %10.0f\n", cap,
                rep.perf.box.median, rep.perf.variation_pct, joules, eff,
                med_power * static_cast<double>(cluster.size()));
  }

  std::cout
      << "\nReading the table:\n"
         "  * energy per kernel has a sweet spot below the TDP (race-to-"
         "idle is not optimal for GEMM)\n"
         "  * but variability grows as caps drop (paper: 9% -> 18% between "
         "300 W and 150 W)\n"
         "  * bulk-synchronous jobs pay for the *slowest* GPU, so the "
         "fairness loss compounds at scale\n";
  return 0;
}
