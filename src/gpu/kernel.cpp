#include "gpu/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"

namespace gpuvar {

void KernelSpec::validate() const {
  GPUVAR_REQUIRE_MSG(flops >= 0.0 && bytes >= 0.0, name);
  // Infinite work would never finish: the device's rate would be 0.
  GPUVAR_REQUIRE_MSG(std::isfinite(flops) && std::isfinite(bytes), name);
  GPUVAR_REQUIRE_MSG(flops > 0.0 || bytes > 0.0, name + ": no work");
  GPUVAR_REQUIRE_MSG(compute_efficiency > 0.0 && compute_efficiency <= 1.0,
                     name);
  GPUVAR_REQUIRE_MSG(bw_efficiency > 0.0 && bw_efficiency <= 1.0, name);
  GPUVAR_REQUIRE_MSG(activity >= 0.0 && activity <= 1.0, name);
  GPUVAR_REQUIRE_MSG(stall_activity_floor >= 0.0 && stall_activity_floor <= 1.0,
                     name);
  GPUVAR_REQUIRE_MSG(fu_util >= 0.0 && fu_util <= 10.0, name);
  GPUVAR_REQUIRE_MSG(dram_util >= 0.0 && dram_util <= 10.0, name);
  GPUVAR_REQUIRE_MSG(mem_stall_frac >= 0.0 && mem_stall_frac <= 1.0, name);
  GPUVAR_REQUIRE_MSG(exec_stall_frac >= 0.0 && exec_stall_frac <= 1.0, name);
}

Seconds compute_time(const KernelSpec& k, const GpuSku& sku, MegaHertz f) {
  if (k.flops <= 0.0) return Seconds{};
  return Seconds{k.flops / (sku.peak_flops(f) * k.compute_efficiency)};
}

Seconds memory_time(const KernelSpec& k, const GpuSku& sku,
                    const SiliconSample& chip) {
  if (k.bytes <= 0.0) return Seconds{};
  const double bw =
      sku.mem_bw_gbps * 1e9 * k.bw_efficiency * chip.mem_bw_factor;
  return Seconds{k.bytes / bw};
}

Seconds kernel_time_at(const KernelSpec& k, const GpuSku& sku,
                       const SiliconSample& chip, MegaHertz f) {
  return std::max(compute_time(k, sku, f), memory_time(k, sku, chip));
}

double memory_boundedness(const KernelSpec& k, const GpuSku& sku,
                          const SiliconSample& chip, MegaHertz f) {
  const Seconds tc = compute_time(k, sku, f);
  const Seconds tm = memory_time(k, sku, chip);
  const Seconds t = std::max(tc, tm);
  if (t <= Seconds{}) return 0.0;
  // 0 when compute fully covers memory, 1 when memory dwarfs compute.
  return std::clamp((tm - tc) / t, 0.0, 1.0);
}

double effective_activity(const KernelSpec& k, const GpuSku& sku,
                          const SiliconSample& chip, MegaHertz f) {
  const double mb = memory_boundedness(k, sku, chip, f);
  // While memory-bound the datapath's switching activity collapses to the
  // kernel's stall floor (DRAM/L2 traffic, address generation).
  return k.activity * (1.0 - mb * (1.0 - k.stall_activity_floor));
}

KernelSpec make_sgemm_kernel(std::size_t n) {
  GPUVAR_REQUIRE(n >= 64);
  KernelSpec k;
  k.name = "sgemm_" + std::to_string(n);
  const double dn = static_cast<double>(n);
  k.flops = 2.0 * dn * dn * dn;
  // cuBLAS-style blocked GEMM: each operand is streamed ~n/block times;
  // with ~128-wide tiles effective traffic is ~(3 + n/128)·n²·4 bytes.
  k.bytes = (3.0 + dn / 128.0) * dn * dn * 4.0;
  k.compute_efficiency = 0.93;
  k.bw_efficiency = 0.85;
  k.activity = 1.0;
  k.fu_util = 10.0;
  k.dram_util = 2.0;
  k.mem_stall_frac = 0.03;
  k.exec_stall_frac = 0.36;
  k.validate();
  return k;
}

}  // namespace gpuvar
