// Board power model: P = C_eff·V(f)²·f·activity + P_leak(T) + P_idle.
//
// V(f) is the SKU's typical V/f curve shifted by the chip's vf_offset;
// leakage grows exponentially with junction temperature (the classic
// thermal-runaway coupling); activity ∈ [0, 1] captures how hard the
// running kernel exercises the datapath (a full-tilt GEMM ≈ 1.0, a
// latency-bound SpMV ≈ 0.25).
#pragma once

#include <cmath>

#include "common/units.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"

namespace gpuvar {

class PowerModel {
 public:
  PowerModel(const GpuSku& sku, const SiliconSample& chip)
      : sku_(&sku), chip_(&chip) {}

  /// The chip's actual operating voltage at frequency f.
  Volts voltage(MegaHertz f) const;

  /// Dynamic (switching) power at frequency f and activity level.
  Watts dynamic_power(MegaHertz f, double activity) const;

  /// Static leakage power at junction temperature t. Runs once per
  /// simulated tick, hence defined here.
  Watts leakage_power(Celsius t) const {
    return sku_->leakage_at_ref * chip_->leakage_factor *
           std::exp(sku_->leak_temp_coeff * (t - sku_->leak_ref_temp).value());
  }

  /// Total board power.
  Watts total_power(MegaHertz f, double activity, Celsius t) const;

  /// Idle board power (activity 0) at temperature t.
  Watts idle_power(Celsius t) const;

  const GpuSku& sku() const { return *sku_; }
  const SiliconSample& chip() const { return *chip_; }

 private:
  const GpuSku* sku_;
  const SiliconSample* chip_;
};

}  // namespace gpuvar
