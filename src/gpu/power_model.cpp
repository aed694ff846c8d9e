#include "gpu/power_model.hpp"

#include "common/require.hpp"
#include "common/units.hpp"

namespace gpuvar {

Volts PowerModel::voltage(MegaHertz f) const {
  return sku_->voltage_at(f) + chip_->vf_offset;
}

Watts PowerModel::dynamic_power(MegaHertz f, double activity) const {
  GPUVAR_REQUIRE(activity >= 0.0 && activity <= 1.0);
  const double v = voltage(f).value();
  return Watts{sku_->c_eff * chip_->efficiency_factor * v * v * f.value() *
               activity};
}

Watts PowerModel::total_power(MegaHertz f, double activity, Celsius t) const {
  return dynamic_power(f, activity) + leakage_power(t) + sku_->idle_power;
}

Watts PowerModel::idle_power(Celsius t) const {
  return leakage_power(t) + sku_->idle_power;
}

}  // namespace gpuvar
