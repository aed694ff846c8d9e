// Lumped RC thermal model of a GPU package + heatsink.
//
//   C · dT/dt = P - (T - T_coolant) / R
//
// R (°C/W) captures the heatsink + airflow/coolant loop; C (J/°C) the
// package thermal mass. Equilibrium temperature is T_coolant + P·R. The
// coolant temperature and R are sampled per GPU from the cooling spec —
// air-cooled racks see a wide inlet-temperature spread (hot aisles),
// water loops a narrow one.
#pragma once

#include "common/units.hpp"

namespace gpuvar {

struct ThermalParams {
  double r_c_per_w = 0.1;   ///< thermal resistance, °C/W
  double c_j_per_c = 120.0; ///< thermal capacitance, J/°C
  Celsius coolant{25.0};   ///< local coolant / inlet temperature
};

class ThermalModel {
 public:
  explicit ThermalModel(const ThermalParams& params);

  Celsius temperature() const { return temp_; }
  const ThermalParams& params() const { return params_; }

  /// Advance the model by dt under dissipated power p, using the exact
  /// solution of the linear ODE for constant p (stable for any dt).
  void step(Seconds dt, Watts p);

  /// The steady-state temperature under constant power p.
  Celsius equilibrium(Watts p) const;

  /// Jump directly to the steady state for power p (used by the
  /// fast-forward optimizer once the control loop has stabilized).
  void settle(Watts p);

  /// Reset to the idle equilibrium for the given idle power.
  void reset(Watts idle_power);

  /// RC time constant (s).
  Seconds time_constant() const;

  /// Adjusts the local coolant/inlet temperature (spatial coupling: heat
  /// picked up from co-located neighbours under shared airflow).
  void set_coolant(Celsius coolant) { params_.coolant = coolant; }

 private:
  ThermalParams params_;
  Celsius temp_;
  // step()'s decay exp(-dt/τ) for the last dt it saw: dt is nearly
  // always the tick, and τ never changes (set_coolant leaves R and C).
  Seconds decay_dt_{-1.0};
  double decay_ = 0.0;
};

}  // namespace gpuvar
