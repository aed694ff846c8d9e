#include "gpu/dvfs.hpp"

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/units.hpp"
#include "gpu/sku.hpp"

namespace gpuvar {

DvfsController::DvfsController(const GpuSku& sku, Watts power_limit)
    : sku_(&sku), ladder_(sku.frequency_ladder()) {
  GPUVAR_REQUIRE(!ladder_.empty());
  set_power_limit(power_limit);
  reset();
}

void DvfsController::set_power_limit(Watts limit) {
  power_limit_ = (limit > Watts{}) ? limit : sku_->tdp;
  GPUVAR_REQUIRE(power_limit_ > Watts{});
}

void DvfsController::reset() {
  index_ = ladder_.size() - 1;  // boost state
  next_action_ = Seconds{0.0};
  up_hold_until_ = Seconds{0.0};
  last_observe_ = Seconds{0.0};
  thermal_throttle_ = false;
  down_steps_ = 0;
  up_steps_ = 0;
  decisions_ = 0;
}

void DvfsController::step_down() {
  if (index_ > 0) {
    --index_;
    ++down_steps_;
  }
}

void DvfsController::step_up() {
  if (index_ + 1 < ladder_.size()) {
    ++index_;
    ++up_steps_;
  }
}

bool DvfsController::observe(Seconds now, Watts power, Celsius temperature) {
  GPUVAR_ASSERT(now >= last_observe_);
  GPUVAR_ASSERT(index_ < ladder_.size());
  last_observe_ = now;
  if (now < next_action_) return false;
  next_action_ = now + sku_->dvfs_control_period;
  ++decisions_;
  // Stamp any instants below with the device clock, not the stale
  // end-of-last-iteration lane time.
  GPUVAR_TRACE_ADVANCE(now);

  const std::size_t before = index_;
  thermal_throttle_ = false;

  // Thermal protection dominates: at the slowdown threshold the firmware
  // forces lower states regardless of power headroom.
  if (temperature >= sku_->slowdown_temp) {
    step_down();
    thermal_throttle_ = true;
    up_hold_until_ = now + 10.0 * sku_->dvfs_control_period;
    GPUVAR_METRIC_COUNT("dvfs.thermal_throttles");
    GPUVAR_TRACE_INSTANT("dvfs", "thermal_throttle", "state",
                         static_cast<std::int64_t>(index_));
    return index_ != before;
  }

  if (power > power_limit_) {
    step_down();
    // Brief hold so a single over-power event doesn't immediately bounce
    // back up (hysteresis).
    up_hold_until_ = now + 4.0 * sku_->dvfs_control_period;
    if (index_ != before) {
      GPUVAR_METRIC_COUNT("dvfs.step_downs");
      GPUVAR_TRACE_INSTANT("dvfs", "step_down", "state",
                           static_cast<std::int64_t>(index_));
    }
  } else if (power < power_limit_ - sku_->dvfs_up_margin &&
             now >= up_hold_until_ &&
             temperature < sku_->slowdown_temp - Celsius{2.0}) {
    step_up();
    if (index_ != before) GPUVAR_METRIC_COUNT("dvfs.step_ups");
  }
  return index_ != before;
}

}  // namespace gpuvar
