#include "thermal/thermal.hpp"

#include <cmath>

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "common/units.hpp"

namespace gpuvar {

ThermalModel::ThermalModel(const ThermalParams& params) : params_(params) {
  GPUVAR_REQUIRE(params.r_c_per_w > 0.0);
  GPUVAR_REQUIRE(params.c_j_per_c > 0.0);
  temp_ = params.coolant;
}

Seconds ThermalModel::time_constant() const {
  return Seconds{params_.r_c_per_w * params_.c_j_per_c};
}

void ThermalModel::step(Seconds dt, Watts p) {
  GPUVAR_REQUIRE(dt >= Seconds{});
  GPUVAR_ASSERT(p >= Watts{});
  // Hottest loop in the simulator (one call per tick per GPU): a
  // counter is one cached pointer hop + sharded fetch_add, no span.
  GPUVAR_METRIC_COUNT("thermal.rc_steps");
  // Exact solution of the linear ODE over dt (unconditionally stable,
  // exact for constant p): T(t+dt) = Teq + (T - Teq)·exp(-dt/τ).
  const Celsius teq = equilibrium(p);
  if (dt != decay_dt_) {
    decay_dt_ = dt;
    decay_ = std::exp(-(dt / time_constant()));
  }
  temp_ = teq + (temp_ - teq) * decay_;
  GPUVAR_ASSERT(temp_ > kAbsoluteZero);
}

Celsius ThermalModel::equilibrium(Watts p) const {
  return params_.coolant + Celsius{p.value() * params_.r_c_per_w};
}

void ThermalModel::settle(Watts p) {
  GPUVAR_ASSERT(p >= Watts{});
  temp_ = equilibrium(p);
  GPUVAR_ASSERT(temp_ > kAbsoluteZero);
}

void ThermalModel::reset(Watts idle_power) { settle(idle_power); }

}  // namespace gpuvar
