// The simulated GPU: couples the power model, DVFS controller and thermal
// model into a tick-level simulation that executes kernel descriptions
// and emits profiler telemetry.
//
// The simulation loop advances in fixed ticks of `SimOptions::tick`: 1 ms
// (profiler resolution) by default, but campaigns tick at the SKU's DVFS
// control period (`RunOptions::for_sku`, 10 ms on V100), since the
// controller acts at most once per period. Once the control loop and
// thermals reach a provably stable state, the device can *fast-forward*:
// finish the remaining work analytically at the settled operating point.
// This is exact for the runtime/energy accounting because the operating
// point no longer changes, and it makes cluster-scale experiments
// tractable (the paper's 18,800 hours of data in seconds of CPU time).
// Fast-forward is validated against full-tick simulation in the test
// suite and the `abl_fastforward` bench.
#pragma once

#include "common/units.hpp"
#include "gpu/dvfs.hpp"
namespace gpuvar { struct KernelSpec; }  // was: #include "gpu/kernel.hpp"
#include "gpu/power_model.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"
#include "gpu/pmapi.hpp"
namespace gpuvar { class Sampler; }  // was: #include "gpu/sampler.hpp"
#include "thermal/thermal.hpp"

namespace gpuvar {

/// Fast-forward needs the controller quiet for this long...
inline constexpr Seconds kSteadyWindow{0.3};
/// ...and the temperature within this of its fixed point.
inline constexpr Celsius kSteadyTempEps{1.0};

struct SimOptions {
  Seconds tick{1e-3};          ///< simulation step (profiler resolution)
  bool fast_forward = true;     ///< enable steady-state fast-forwarding
};

struct KernelResult {
  Seconds start{};
  Seconds duration{};
  Joules energy{};
  Watts mean_power{};       ///< energy / duration
  bool fast_forwarded = false;  ///< true if any part was fast-forwarded
};

class SimulatedGpu : public PmIntrospection {
 public:
  SimulatedGpu(const GpuSku& sku, const SiliconSample& chip,
               const ThermalParams& thermal, const SimOptions& opts = {});

  const GpuSku& sku() const { return sku_; }
  const SiliconSample& chip() const { return chip_; }
  const SimOptions& options() const { return opts_; }

  /// Current simulated wall-clock (seconds since construction/reset).
  Seconds clock() const { return clock_; }
  MegaHertz frequency() const { return dvfs_.frequency(); }
  Celsius temperature() const { return thermal_.temperature(); }
  Watts power_limit() const { return dvfs_.power_limit(); }

  /// Set the enforced power limit (TDP by default). Models both the
  /// nvidia-smi admin knob (§VI-B) and degraded power delivery faults.
  void set_power_limit(Watts limit) { dvfs_.set_power_limit(limit); }

  /// Execute one kernel. `sampler` may be null.
  ///
  /// `work_scale` stretches the kernel's duration at unchanged activity
  /// (more work: run-to-run noise). `stall_scale` stretches duration while
  /// scaling activity down by the same factor (same work, more waiting:
  /// the per-GPU host/framework/memory-path factor) — a GPU slowed this
  /// way also draws less power, matching the paper's ResNet observations.
  /// `activity_scale` multiplies the kernel's power activity (clamped to
  /// [0, 1]) without touching runtime: per-GPU algorithm-selection power
  /// spread (e.g. different cuDNN convolution algorithms).
  KernelResult run_kernel(const KernelSpec& kernel, Sampler* sampler,
                          double work_scale = 1.0, double stall_scale = 1.0,
                          double activity_scale = 1.0);

  /// Advance the device idling for dt (kernel-launch gaps, barrier waits).
  void idle_for(Seconds dt, Sampler* sampler);

  /// Reset clock and thermal state to idle equilibrium, DVFS to boost
  /// (i.e. a fresh allocation of a previously idle GPU).
  void reset();

  /// Temporal effects (SVII future work): start from the thermal state a
  /// preceding job sustaining `sustained_power` would have left behind,
  /// instead of the idle equilibrium.
  void preheat(Watts sustained_power);

  // --- PmIntrospection (the proposed vendor-neutral standard) ---
  PmSnapshot pm_snapshot() const override;
  ThrottleAccounting pm_accounting() const override;
  /// Why the clock is (or is not) below boost right now.
  ThrottleReason throttle_reason() const;

  /// Spatial coupling hook: shift the chip's local inlet temperature
  /// (heat picked up from co-located neighbours). `delta` is relative to
  /// the GPU's own baseline inlet.
  void set_inlet_delta(Celsius delta);
  Celsius baseline_inlet() const { return baseline_inlet_; }

  // --- Fast-forward decision. Pure functions of the device's current
  // cap, coolant and ladder; public so their soundness can be tested.

  /// The leakage/thermal fixed point of one ladder state.
  struct FixedPoint {
    Celsius temp;
    Watts power;
    bool converged = false;
  };

  /// Iterate T ← equilibrium(dyn + leakage(T) + idle) from `start` until
  /// a step moves less than 1e-6 °C (at most 30 steps). `dyn` is the
  /// ladder state's dynamic power.
  FixedPoint fixed_point(Watts dyn, Celsius start) const;

  /// True when the controller, at ladder frequency f and temperature
  /// `temp`, accepts the solved fixed point `eq`: the temperature is
  /// within kSteadyTempEps of it and the control law would not act
  /// there. Only this accepts a fast-forward.
  bool accepts(MegaHertz f, Celsius temp, const FixedPoint& eq) const;

  /// True when `ref`, an earlier solve at ladder state f, proves that a
  /// solve from `temp` would not be accepted: both lie where leakage
  /// feedback contracts, and `ref` is a fixed margin past a threshold
  /// of accepts(). DESIGN.md §4 gives the argument.
  bool reference_refuses(const FixedPoint& ref, MegaHertz f,
                         Celsius temp) const;

 private:
  bool stable_at(MegaHertz f, Watts power, Celsius temp) const;
  bool at_top(MegaHertz f) const;

  GpuSku sku_;
  SiliconSample chip_;
  PowerModel power_;
  DvfsController dvfs_;
  ThermalModel thermal_;
  SimOptions opts_;
  Seconds clock_{};
  Seconds last_freq_change_{};
  Watts last_power_{};
  Celsius baseline_inlet_{};
  // Above this temperature the leakage feedback gain
  // R·leak_temp_coeff·leakage_power(T) exceeds ½.
  Celsius contraction_limit_{};
  ThrottleAccounting accounting_;
  long dvfs_baseline_down_ = 0;
  long dvfs_baseline_up_ = 0;

  void account(Seconds dt);
};

}  // namespace gpuvar
