#include "gpu/device.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/kernel.hpp"
#include "gpu/pmapi.hpp"
#include "gpu/sampler.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"
#include "thermal/thermal.hpp"

namespace gpuvar {

SimulatedGpu::SimulatedGpu(const GpuSku& sku, const SiliconSample& chip,
                           const ThermalParams& thermal,
                           const SimOptions& opts)
    : sku_(sku),
      chip_(chip),
      power_(sku_, chip_),
      dvfs_(sku_),
      thermal_(thermal),
      opts_(opts) {
  GPUVAR_REQUIRE(opts.tick > Seconds{});
  baseline_inlet_ = thermal.coolant;
  reset();
}

void SimulatedGpu::set_inlet_delta(Celsius delta) {
  thermal_.set_coolant(baseline_inlet_ + delta);
}

void SimulatedGpu::reset() {
  clock_ = Seconds{0.0};
  last_freq_change_ = Seconds{0.0};
  accounting_ = ThrottleAccounting{};
  dvfs_baseline_down_ = 0;
  dvfs_baseline_up_ = 0;
  dvfs_.reset();
  // Idle equilibrium: solve the leakage/temperature fixed point.
  Celsius t = thermal_.params().coolant;
  for (int i = 0; i < 20; ++i) {
    t = thermal_.equilibrium(power_.idle_power(t));
  }
  thermal_.settle(power_.idle_power(t));
}

void SimulatedGpu::preheat(Watts sustained_power) {
  GPUVAR_REQUIRE(sustained_power >= Watts{});
  thermal_.settle(sustained_power);
}

ThrottleReason SimulatedGpu::throttle_reason() const {
  if (dvfs_.frequency() >= dvfs_.ladder().back() - MegaHertz{1e-9}) {
    return ThrottleReason::kNone;
  }
  if (dvfs_.thermally_throttled() ||
      thermal_.temperature() >= sku_.slowdown_temp - Celsius{2.0}) {
    return ThrottleReason::kThermal;
  }
  return ThrottleReason::kPowerCap;
}

PmSnapshot SimulatedGpu::pm_snapshot() const {
  PmSnapshot s;
  s.sm_freq = dvfs_.frequency();
  s.max_freq = dvfs_.ladder().back();
  s.power = last_power_;
  s.power_limit = dvfs_.power_limit();
  s.temperature = thermal_.temperature();
  s.slowdown_temp = sku_.slowdown_temp;
  s.reason = throttle_reason();
  return s;
}

ThrottleAccounting SimulatedGpu::pm_accounting() const {
  ThrottleAccounting a = accounting_;
  a.down_steps = dvfs_.down_steps() - dvfs_baseline_down_;
  a.up_steps = dvfs_.up_steps() - dvfs_baseline_up_;
  return a;
}

void SimulatedGpu::account(Seconds dt) {
  accounting_.total += dt;
  switch (throttle_reason()) {
    case ThrottleReason::kNone:
      accounting_.at_max_clock += dt;
      break;
    case ThrottleReason::kPowerCap:
      accounting_.power_limited += dt;
      break;
    case ThrottleReason::kThermal:
      accounting_.thermal_limited += dt;
      break;
  }
}

Celsius SimulatedGpu::equilibrium_temperature(MegaHertz f,
                                              double activity) const {
  Celsius t = thermal_.temperature();
  for (int i = 0; i < 30; ++i) {
    const Watts p = power_.total_power(f, activity, t);
    const Celsius next = thermal_.equilibrium(p);
    if (abs(next - t) < Celsius{1e-6}) return next;
    t = next;
  }
  return t;
}

bool SimulatedGpu::stable_at(MegaHertz f, Watts power, Celsius temp) const {
  // The controller will not act iff: not over the cap, not thermally
  // throttling, and either already at the boost state or inside the
  // hysteresis band below the cap.
  if (temp >= sku_.slowdown_temp - Celsius{2.0}) return false;
  if (power > dvfs_.power_limit()) return false;
  const bool at_top = f >= dvfs_.ladder().back() - MegaHertz{1e-9};
  if (!at_top && power < dvfs_.power_limit() - sku_.dvfs_up_margin) {
    return false;
  }
  return true;
}

KernelResult SimulatedGpu::run_kernel(const KernelSpec& kernel,
                                      Sampler* sampler, double work_scale,
                                      double stall_scale,
                                      double activity_scale) {
  kernel.validate();
  GPUVAR_REQUIRE(work_scale > 0.0);
  GPUVAR_REQUIRE(stall_scale > 0.0);
  GPUVAR_REQUIRE(activity_scale > 0.0);

  KernelResult result;
  result.start = clock_;

  double remaining = 1.0;  // normalized work fraction
  double freq_time = 0.0, power_time = 0.0, temp_time = 0.0;

  // Per-frequency terms, recomputed only when the controller moved the
  // ladder index (most ticks keep it). Same inputs, same doubles.
  MegaHertz cached_f{-1.0};
  double activity = 0.0;
  double rate = 0.0;  // work fraction per second
  Watts dyn{};

  while (remaining > 0.0) {
    const MegaHertz f = dvfs_.frequency();
    if (f != cached_f) {
      cached_f = f;
      activity = std::min(1.0, effective_activity(kernel, sku_, chip_, f) *
                                   activity_scale / stall_scale);
      const Seconds full_time =
          kernel_time_at(kernel, sku_, chip_, f) * work_scale * stall_scale;
      GPUVAR_ASSERT(full_time > Seconds{});
      rate = 1.0 / full_time.value();
      dyn = power_.dynamic_power(f, activity);
    }
    const Celsius temp = thermal_.temperature();
    // total_power's sum, in its order, with the dynamic term reused.
    const Watts p = dyn + power_.leakage_power(temp) + sku_.idle_power;

    // Fast-forward: if the operating point is provably stable (controller
    // quiet for the window, temperature at its fixed point, and the
    // control law would not act at the equilibrium), finish analytically.
    // The cheap checks run before the fixed-point solve; every check is
    // pure, so the order changes the cost of the chain, not its result.
    if (opts_.fast_forward &&
        clock_ - last_freq_change_ >= opts_.steady_window &&
        // Cheap precheck: skip the fixed-point solve unless the current
        // power's equilibrium is already close (leakage feedback only
        // moves it slightly further).
        abs(thermal_.equilibrium(p) - temp) <=
            2.0 * opts_.steady_temp_eps &&
        // The control law must accept the current point too. A kernel
        // hovering at the power cap fails this on most ticks, so it goes
        // before the solve.
        stable_at(f, p, temp)) {
      const Celsius teq = equilibrium_temperature(f, activity);
      const Watts peq = power_.total_power(f, activity, teq);
      if (abs(teq - temp) <= opts_.steady_temp_eps &&
          stable_at(f, peq, teq)) {
        const Seconds dt{remaining / rate};
        thermal_.settle(peq);
        last_power_ = peq;
        account(dt);
        if (sampler != nullptr) sampler->record_span(clock_, dt, f, peq, teq);
        result.energy += peq * dt;
        freq_time += f.value() * dt.value();
        power_time += peq.value() * dt.value();
        temp_time += teq.value() * dt.value();
        clock_ += dt;
        remaining = 0.0;
        result.fast_forwarded = true;
        break;
      }
    }

    const Seconds dt = std::min(opts_.tick, Seconds{remaining / rate});
    thermal_.step(dt, p);
    last_power_ = p;
    account(dt);
    if (sampler != nullptr) sampler->record_span(clock_, dt, f, p, temp);
    result.energy += p * dt;
    freq_time += f.value() * dt.value();
    power_time += p.value() * dt.value();
    temp_time += temp.value() * dt.value();
    clock_ += dt;
    remaining -= rate * dt.value();
    if (remaining < 1e-12) remaining = 0.0;

    if (dvfs_.observe(clock_, p, thermal_.temperature())) {
      last_freq_change_ = clock_;
    }
  }

  result.duration = clock_ - result.start;
  GPUVAR_ASSERT(result.duration > Seconds{});
  result.mean_freq = MegaHertz{freq_time / result.duration.value()};
  result.mean_power = Watts{power_time / result.duration.value()};
  result.mean_temp = Celsius{temp_time / result.duration.value()};
  return result;
}

void SimulatedGpu::idle_for(Seconds dt, Sampler* sampler) {
  GPUVAR_REQUIRE(dt >= Seconds{});
  Seconds remaining = dt;
  // Idle power varies only through slow leakage/temperature coupling;
  // 50 ms steps resolve it comfortably (τ is hundreds of ms).
  const Seconds step{0.05};
  while (remaining > Seconds{}) {
    const Seconds d = std::min(step, remaining);
    const Celsius temp = thermal_.temperature();
    const Watts p = power_.idle_power(temp);
    thermal_.step(d, p);
    last_power_ = p;
    if (sampler != nullptr) sampler->record_span(clock_, d, dvfs_.frequency(), p, temp);
    clock_ += d;
    remaining -= d;
    // Idle headroom lets the controller climb back to boost.
    if (dvfs_.observe(clock_, p, thermal_.temperature())) {
      last_freq_change_ = clock_;
    }
  }
}

}  // namespace gpuvar
