#include "gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/require.hpp"
#include "common/units.hpp"
#include "gpu/kernel.hpp"
#include "gpu/pmapi.hpp"
#include "gpu/sampler.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"
#include "obs/metrics.hpp"
#include "thermal/thermal.hpp"

namespace gpuvar {

namespace {

// How far past a refusal threshold a reference fixed point must lie for
// reference_refuses(). Two solves at one ladder state differ by at most
// 2e-6 °C and leak_temp_coeff·leakage·2e-6 W (~1.4e-6 W on a V100), so
// this margin cannot flip a comparison.
constexpr double kRefuseMargin = 1e-3;

// The models count controller decisions and RC steps; the device adds
// a call's worth at once, since every counter update costs a few ns
// with a registry installed.
void flush_tick_counters(long decisions, long rc_steps) {
  if (decisions != 0) GPUVAR_METRIC_ADD("dvfs.decisions", decisions);
  if (rc_steps != 0) GPUVAR_METRIC_ADD("thermal.rc_steps", rc_steps);
}

}  // namespace

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
  // The fixed-point map's slope, R·k·leakage(T), grows with T and is ½
  // here. A non-positive gain leaves the limit at -inf: no shortcut.
  const double gain_at_ref = thermal.r_c_per_w * sku_.leak_temp_coeff *
                             (sku_.leakage_at_ref * chip_.leakage_factor).value();
  contraction_limit_ =
      gain_at_ref > 0.0
          ? sku_.leak_ref_temp +
                Celsius{std::log(0.5 / gain_at_ref) / sku_.leak_temp_coeff}
          : Celsius{-std::numeric_limits<double>::infinity()};
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

bool SimulatedGpu::at_top(MegaHertz f) const {
  return f >= dvfs_.ladder().back() - MegaHertz{1e-9};
}

ThrottleReason SimulatedGpu::throttle_reason() const {
  if (at_top(dvfs_.frequency())) {
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

SimulatedGpu::FixedPoint SimulatedGpu::fixed_point(Watts dyn,
                                                   Celsius start) const {
  // total_power's sum, in its order, with the ladder state's dynamic term.
  const auto power_at = [&](Celsius t) {
    return dyn + power_.leakage_power(t) + sku_.idle_power;
  };
  FixedPoint eq{start, Watts{}, false};
  for (int i = 0; i < 30 && !eq.converged; ++i) {
    const Celsius next = thermal_.equilibrium(power_at(eq.temp));
    eq.converged = abs(next - eq.temp) < Celsius{1e-6};
    eq.temp = next;
  }
  eq.power = power_at(eq.temp);
  return eq;
}

bool SimulatedGpu::accepts(MegaHertz f, Celsius temp,
                           const FixedPoint& eq) const {
  return abs(eq.temp - temp) <= kSteadyTempEps &&
         stable_at(f, eq.power, eq.temp);
}

bool SimulatedGpu::reference_refuses(const FixedPoint& ref, MegaHertz f,
                                     Celsius temp) const {
  // Every solve from below ref.temp, or from a start that still
  // contracts, lands within 2e-6 °C of ref.
  if (!ref.converged || std::max(ref.temp, temp) > contraction_limit_) {
    return false;
  }
  const Celsius mt{kRefuseMargin};
  const Watts mw{kRefuseMargin};
  const Watts cap = dvfs_.power_limit();
  return abs(ref.temp - temp) > kSteadyTempEps + mt ||
         ref.temp >= sku_.slowdown_temp - Celsius{2.0} + mt ||
         ref.power > cap + mw ||
         (!at_top(f) && ref.power < cap - sku_.dvfs_up_margin - mw);
}

bool SimulatedGpu::stable_at(MegaHertz f, Watts power, Celsius temp) const {
  // The controller will not act iff: not over the cap, not thermally
  // throttling, and either already at the boost state or inside the
  // hysteresis band below the cap.
  if (temp >= sku_.slowdown_temp - Celsius{2.0}) return false;
  if (power > dvfs_.power_limit()) return false;
  if (!at_top(f) && power < dvfs_.power_limit() - sku_.dvfs_up_margin) {
    return false;
  }
  return true;
}

KernelResult SimulatedGpu::run_kernel(const KernelSpec& kernel,
                                      Sampler* sampler, double work_scale,
                                      double stall_scale,
                                      double activity_scale) {
  kernel.validate();
  // An infinite scale would make the rate 0: the tick loop never ends.
  GPUVAR_REQUIRE(std::isfinite(work_scale) && work_scale > 0.0);
  GPUVAR_REQUIRE(std::isfinite(stall_scale) && stall_scale > 0.0);
  GPUVAR_REQUIRE(std::isfinite(activity_scale) && activity_scale > 0.0);

  KernelResult result;
  result.start = clock_;

  const long decisions_before = dvfs_.decisions();
  const long rc_steps_before = thermal_.steps();

  double remaining = 1.0;  // normalized work fraction

  // Per-frequency terms, recomputed only when the controller moved the
  // ladder index (most ticks keep it). Same inputs, same doubles.
  MegaHertz cached_f{-1.0};
  double activity = 0.0;
  double rate = 0.0;  // work fraction per second
  Watts dyn{};
  // The first fixed point solved at this ladder state. Later solves
  // there land within 2e-6 °C of it, so it refuses most fast-forward
  // checks without a solve; only a solve accepts one.
  std::optional<FixedPoint> ref;

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
      ref.reset();
    }
    const Celsius temp = thermal_.temperature();
    // total_power's sum, in its order, with the dynamic term reused.
    const Watts p = dyn + power_.leakage_power(temp) + sku_.idle_power;

    // Fast-forward: if the operating point is provably stable (controller
    // quiet for the window, temperature at its fixed point, and the
    // control law would not act at the equilibrium), finish analytically.
    // The cheap checks and the reference run before the fixed-point
    // solve; every check is pure, so they change the cost of the chain,
    // not its result.
    if (opts_.fast_forward &&
        clock_ - last_freq_change_ >= kSteadyWindow &&
        // Cheap precheck: skip the fixed-point solve unless the current
        // power's equilibrium is already close (leakage feedback only
        // moves it slightly further).
        abs(thermal_.equilibrium(p) - temp) <= 2.0 * kSteadyTempEps &&
        // The control law must accept the current point too. A kernel
        // hovering at the power cap fails this on most ticks, so it goes
        // before the solve.
        stable_at(f, p, temp) &&
        !(ref && reference_refuses(*ref, f, temp))) {
      const FixedPoint eq = fixed_point(dyn, temp);
      if (!ref) ref = eq;
      if (accepts(f, temp, eq)) {
        const Celsius teq = eq.temp;
        const Watts peq = eq.power;
        const Seconds dt{remaining / rate};
        thermal_.settle(peq);
        last_power_ = peq;
        account(dt);
        if (sampler != nullptr) sampler->record_span(clock_, dt, f, peq, teq);
        result.energy += peq * dt;
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
    clock_ += dt;
    remaining -= rate * dt.value();
    if (remaining < 1e-12) remaining = 0.0;

    if (dvfs_.observe(clock_, p, thermal_.temperature())) {
      last_freq_change_ = clock_;
    }
  }

  result.duration = clock_ - result.start;
  GPUVAR_ASSERT(result.duration > Seconds{});
  // energy sums the p·dt products the mean needs, in tick order from 0.
  result.mean_power = result.energy / result.duration;
  flush_tick_counters(dvfs_.decisions() - decisions_before,
                      thermal_.steps() - rc_steps_before);
  return result;
}

void SimulatedGpu::idle_for(Seconds dt, Sampler* sampler) {
  GPUVAR_REQUIRE(dt >= Seconds{} && std::isfinite(dt.value()));
  const long decisions_before = dvfs_.decisions();
  const long rc_steps_before = thermal_.steps();
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
  flush_tick_counters(dvfs_.decisions() - decisions_before,
                      thermal_.steps() - rc_steps_before);
}

}  // namespace gpuvar
