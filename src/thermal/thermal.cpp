#include "thermal/thermal.hpp"

#include "common/require.hpp"
#include "common/units.hpp"

namespace gpuvar {

ThermalModel::ThermalModel(const ThermalParams& params) : params_(params) {
  GPUVAR_REQUIRE(params.r_c_per_w > 0.0);
  GPUVAR_REQUIRE(params.c_j_per_c > 0.0);
  temp_ = params.coolant;
}

void ThermalModel::settle(Watts p) {
  GPUVAR_ASSERT(p >= Watts{});
  temp_ = equilibrium(p);
  GPUVAR_ASSERT(temp_ > kAbsoluteZero);
}

void ThermalModel::reset(Watts idle_power) { settle(idle_power); }

}  // namespace gpuvar
