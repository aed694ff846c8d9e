// The per-GPU power-management controller (the paper's §II-B).
//
// Modern GPUs run a *local-only* control loop: every control period the
// controller compares measured board power against the power limit and
// walks the frequency ladder one state at a time — down when over the
// limit (or when the junction temperature reaches the slowdown threshold),
// up when comfortably below it. Vendors differ in ladder granularity and
// hysteresis margin, which is exactly what produces the paper's
// NVIDIA-vs-AMD differences (fine 7.5 MHz states and ρ≈-0.97 on V100s
// versus coarse states and weaker correlation on MI60s).
#pragma once

#include <vector>

#include "common/units.hpp"
namespace gpuvar { struct GpuSku; }  // was: #include "gpu/sku.hpp"

namespace gpuvar {

class DvfsController {
 public:
  /// power_limit defaults to the SKU's TDP when <= 0.
  DvfsController(const GpuSku& sku, Watts power_limit = Watts{});

  MegaHertz frequency() const { return ladder_[index_]; }
  Watts power_limit() const { return power_limit_; }
  const std::vector<MegaHertz>& ladder() const { return ladder_; }

  /// Reconfigure the power limit (requires admin rights on real systems —
  /// the CloudLab power-sweep experiment of §VI-B uses this).
  void set_power_limit(Watts limit);

  /// Reset to the boost state (a fresh kernel launch starts from the top
  /// state on NVIDIA parts; the controller then walks down under load).
  void reset();

  /// Feed one observation. Returns true if the frequency changed. `now`
  /// must be monotonically non-decreasing; the controller acts at most
  /// once per control period.
  bool observe(Seconds now, Watts power, Celsius temperature);

  /// True if the last action was a thermally forced down-step.
  bool thermally_throttled() const { return thermal_throttle_; }

  /// Cumulative state transitions since construction/reset.
  long down_steps() const { return down_steps_; }
  long up_steps() const { return up_steps_; }
  /// Cumulative control decisions (observations that acted on a
  /// control period) since construction/reset.
  long decisions() const { return decisions_; }

 private:
  void step_down();
  void step_up();

  const GpuSku* sku_;
  std::vector<MegaHertz> ladder_;
  std::size_t index_ = 0;
  Watts power_limit_{};
  Seconds next_action_{};
  bool thermal_throttle_ = false;
  long down_steps_ = 0;
  long up_steps_ = 0;
  long decisions_ = 0;
  // After stepping down for over-power, hold before trying to step up
  // again; prevents limit-cycling around the cap on coarse ladders.
  Seconds up_hold_until_{};
  // Timestamp of the previous observe() call; observations must be
  // monotonically non-decreasing (asserted).
  Seconds last_observe_{};
};

}  // namespace gpuvar
