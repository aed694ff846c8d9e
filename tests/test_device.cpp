#include "gpu/device.hpp"
#include "common/units.hpp"
#include "gpu/kernel.hpp"
#include "gpu/power_model.hpp"
#include "gpu/sampler.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"
#include "thermal/thermal.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace gpuvar {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  SimulatedGpu make_device(const SimOptions& opts = {}) {
    return SimulatedGpu(sku_, chip_, thermal_, opts);
  }

  GpuSku sku_ = make_v100_sxm2();
  SiliconSample chip_;
  ThermalParams thermal_{0.10, 80.0, Celsius{28.0}};
};

TEST_F(DeviceTest, GemmThrottlesBelowBoost) {
  auto dev = make_device();
  const auto k = make_sgemm_kernel(25536);
  const auto r = dev.run_kernel(k, nullptr);
  // A typical chip settles well below 1530 MHz under the 300 W cap.
  EXPECT_LT(dev.frequency(), sku_.max_mhz - MegaHertz{50.0});
  EXPECT_GT(dev.frequency(), MegaHertz{1250.0});
  EXPECT_GT(r.duration, Seconds{2.0});
  EXPECT_LT(r.duration, Seconds{3.2});
}

TEST_F(DeviceTest, SteadyPowerStaysNearCap) {
  auto dev = make_device();
  const auto k = make_sgemm_kernel(25536);
  Sampler sampler;
  // Warm up to steady state, then measure.
  dev.run_kernel(k, nullptr);
  dev.run_kernel(k, &sampler);
  const auto s = sampler.summary();
  EXPECT_LE(s.power.median, sku_.tdp.value() + 1.0);
  EXPECT_GE(s.power.median, sku_.tdp.value() - 15.0);
}

TEST_F(DeviceTest, MemoryBoundKernelPinsAtBoost) {
  auto dev = make_device();
  KernelSpec k;
  k.name = "stream";
  k.bytes = 5e10;
  k.flops = 1e9;
  k.activity = 0.5;
  k.validate();
  dev.run_kernel(k, nullptr);
  EXPECT_DOUBLE_EQ(dev.frequency().value(), sku_.max_mhz.value());
}

TEST_F(DeviceTest, WorkScaleStretchesDuration) {
  auto a = make_device();
  auto b = make_device();
  const auto k = make_sgemm_kernel(8192);
  const auto ra = a.run_kernel(k, nullptr, 1.0);
  const auto rb = b.run_kernel(k, nullptr, 1.3);
  EXPECT_NEAR(rb.duration / ra.duration, 1.3, 0.1);
}

TEST_F(DeviceTest, StallScaleStretchesAndDimsPower) {
  KernelSpec k;
  k.name = "framework";
  k.flops = 5e11;
  k.activity = 0.6;
  k.validate();
  auto a = make_device();
  auto b = make_device();
  const auto ra = a.run_kernel(k, nullptr, 1.0, 1.0);
  const auto rb = b.run_kernel(k, nullptr, 1.0, 1.5);
  EXPECT_NEAR(rb.duration / ra.duration, 1.5, 0.05);
  EXPECT_LT(rb.mean_power, ra.mean_power);
}

TEST_F(DeviceTest, ActivityScaleChangesPowerNotDuration) {
  KernelSpec k;
  k.name = "conv";
  k.flops = 5e11;
  k.activity = 0.5;
  k.validate();
  auto a = make_device();
  auto b = make_device();
  const auto ra = a.run_kernel(k, nullptr, 1.0, 1.0, 1.0);
  const auto rb = b.run_kernel(k, nullptr, 1.0, 1.0, 1.3);
  EXPECT_NEAR(rb.duration.value(), ra.duration.value(), 1e-6);
  EXPECT_GT(rb.mean_power, ra.mean_power * 1.1);
}

TEST_F(DeviceTest, PowerCapLowersSettledFrequencyAndPower) {
  auto capped = make_device();
  capped.set_power_limit(Watts{250.0});
  auto normal = make_device();
  const auto k = make_sgemm_kernel(25536);
  capped.run_kernel(k, nullptr);  // boost->capped transient
  normal.run_kernel(k, nullptr);
  const auto rc = capped.run_kernel(k, nullptr);
  const auto rn = normal.run_kernel(k, nullptr);
  EXPECT_LT(capped.frequency(), normal.frequency());
  EXPECT_GT(rc.duration, rn.duration);
  EXPECT_LT(rc.mean_power, Watts{255.0});
}

TEST_F(DeviceTest, EnergyEqualsMeanPowerTimesDuration) {
  auto dev = make_device();
  const auto k = make_sgemm_kernel(8192);
  const auto r = dev.run_kernel(k, nullptr);
  EXPECT_NEAR(r.energy.value(), (r.mean_power * r.duration).value(),
              1e-6 * r.energy.value());
}

TEST_F(DeviceTest, FastForwardMatchesFullSimulation) {
  SimOptions full;
  full.fast_forward = false;
  SimOptions ff;
  ff.fast_forward = true;
  auto dev_full = make_device(full);
  auto dev_ff = make_device(ff);
  const auto k = make_sgemm_kernel(25536);
  const auto rf = dev_full.run_kernel(k, nullptr);
  const auto rq = dev_ff.run_kernel(k, nullptr);
  // Runtime/energy within 1%; the fast path must not distort physics.
  EXPECT_NEAR(rq.duration.value(), rf.duration.value(), 0.01 * rf.duration.value());
  EXPECT_NEAR(rq.energy.value(), rf.energy.value(), 0.015 * rf.energy.value());
  EXPECT_NEAR(dev_ff.frequency().value(), dev_full.frequency().value(),
              2 * sku_.ladder_step_mhz.value());
}

TEST_F(DeviceTest, FastForwardEngagesForSteadyKernels) {
  // Small thermal mass so the temperature fixed point is reached within a
  // couple of kernels; the third repetition must take the fast path.
  SimulatedGpu dev(sku_, chip_, ThermalParams{0.10, 8.0, Celsius{28.0}});
  const auto k = make_sgemm_kernel(25536);
  dev.run_kernel(k, nullptr);
  dev.run_kernel(k, nullptr);
  const auto r = dev.run_kernel(k, nullptr);
  EXPECT_TRUE(r.fast_forwarded);
}

TEST_F(DeviceTest, IdleCoolsTheChip) {
  auto dev = make_device();
  dev.run_kernel(make_sgemm_kernel(25536), nullptr);
  const double hot = dev.temperature().value();
  dev.idle_for(Seconds{60.0}, nullptr);
  EXPECT_LT(dev.temperature(), Celsius{hot - 5.0});
}

TEST_F(DeviceTest, IdleLetsDvfsClimbBack) {
  auto dev = make_device();
  dev.run_kernel(make_sgemm_kernel(25536), nullptr);
  EXPECT_LT(dev.frequency(), sku_.max_mhz);
  dev.idle_for(Seconds{5.0}, nullptr);
  EXPECT_DOUBLE_EQ(dev.frequency().value(), sku_.max_mhz.value());
}

TEST_F(DeviceTest, ResetRestoresColdState) {
  auto dev = make_device();
  dev.run_kernel(make_sgemm_kernel(25536), nullptr);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.clock().value(), 0.0);
  EXPECT_DOUBLE_EQ(dev.frequency().value(), sku_.max_mhz.value());
  EXPECT_LT(dev.temperature(), Celsius{45.0});
}

TEST_F(DeviceTest, ClockAdvancesAcrossKernels) {
  auto dev = make_device();
  const auto k = make_sgemm_kernel(8192);
  const auto r1 = dev.run_kernel(k, nullptr);
  const auto r2 = dev.run_kernel(k, nullptr);
  EXPECT_DOUBLE_EQ(r2.start.value(), (r1.start + r1.duration).value());
  EXPECT_DOUBLE_EQ(dev.clock().value(), (r2.start + r2.duration).value());
}

TEST_F(DeviceTest, HotterCoolingMeansLowerSettledFrequency) {
  // Leakage rises with temperature; the DVFS equilibrium drops.
  ThermalParams hot_loop{0.17, 80.0, Celsius{45.0}};
  SimulatedGpu hot(sku_, chip_, hot_loop);
  SimulatedGpu cool(sku_, chip_, ThermalParams{0.07, 80.0, Celsius{22.0}});
  const auto k = make_sgemm_kernel(25536);
  // Two kernels back to back so temperatures approach equilibrium.
  hot.run_kernel(k, nullptr);
  hot.run_kernel(k, nullptr);
  cool.run_kernel(k, nullptr);
  cool.run_kernel(k, nullptr);
  EXPECT_LT(hot.frequency(), cool.frequency());
}

TEST_F(DeviceTest, RejectsBadScales) {
  auto dev = make_device();
  const auto k = make_sgemm_kernel(8192);
  EXPECT_THROW(dev.run_kernel(k, nullptr, 0.0), std::invalid_argument);
  EXPECT_THROW(dev.run_kernel(k, nullptr, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(dev.idle_for(Seconds{-1.0}, nullptr), std::invalid_argument);
}

// Infinite work or an infinite scale makes the rate 0. On the
// time-series path (no fast-forward) the tick loop would never end; with
// fast-forward the kernel would take forever in one span. Both refuse.
TEST_F(DeviceTest, RejectsNonFiniteWork) {
  const double inf = std::numeric_limits<double>::infinity();
  SimOptions ticking;
  ticking.fast_forward = false;
  for (const SimOptions& opts : {SimOptions{}, ticking}) {
    auto dev = make_device(opts);
    const auto k = make_sgemm_kernel(8192);
    EXPECT_THROW(dev.run_kernel(k, nullptr, inf), std::invalid_argument);
    EXPECT_THROW(dev.run_kernel(k, nullptr, 1.0, inf), std::invalid_argument);
    EXPECT_THROW(dev.run_kernel(k, nullptr, 1.0, 1.0, inf),
                 std::invalid_argument);
    KernelSpec endless = k;
    endless.flops = inf;
    EXPECT_THROW(dev.run_kernel(endless, nullptr), std::invalid_argument);
    endless = k;
    endless.bytes = inf;
    EXPECT_THROW(dev.run_kernel(endless, nullptr), std::invalid_argument);
    EXPECT_THROW(dev.idle_for(Seconds{inf}, nullptr), std::invalid_argument);
    EXPECT_DOUBLE_EQ(dev.clock().value(), 0.0);
  }
}

// The fast-forward check refuses from the first fixed point solved at a
// ladder state (the reference) when it lies a margin m past a refusal
// threshold. Sweep start temperatures and caps to within ±2m of every
// threshold, across SKUs, chips, coolants and thermal resistances, and
// check that each refusal from a reference is also a refusal of the
// exact solve from that start.
TEST(FastForwardReference, RefusesOnlyWhatTheExactSolveRefuses) {
  constexpr double m = 1e-3;  // the margin reference_refuses() keeps
  long refused = 0;
  long accepted = 0;
  for (const GpuSku& sku : {make_v100_sxm2(), make_rtx5000(), make_mi60()}) {
    const std::vector<MegaHertz> ladder = sku.frequency_ladder();
    for (int c = 0; c < 3; ++c) {
      const SiliconSample chip =
          sample_silicon(sku, 17, "chip" + std::to_string(c));
      const PowerModel power(sku, chip);
      for (const double r : {0.06, 0.12, 0.25}) {
        for (const double coolant : {22.0, 40.0}) {
          SimulatedGpu dev(sku, chip, ThermalParams{r, 100.0, Celsius{coolant}});
          const Celsius eps = kSteadyTempEps;
          const Celsius slowdown = sku.slowdown_temp - Celsius{2.0};
          for (const MegaHertz f :
               {ladder.back(), ladder[ladder.size() / 2], ladder.front()}) {
            const Watts dyn = power.dynamic_power(f, 1.0);
            // check(ref, temp): a refusal from `ref` must be a refusal of
            // the solve from `temp`.
            const auto check = [&](const SimulatedGpu::FixedPoint& ref,
                                   Celsius temp) {
              const bool exact = dev.accepts(f, temp, dev.fixed_point(dyn, temp));
              accepted += exact;
              if (!dev.reference_refuses(ref, f, temp)) return;
              ++refused;
              EXPECT_FALSE(exact)
                  << sku.name << " chip " << c << " R " << r << " coolant "
                  << coolant << " f " << f.value() << " temp " << temp.value()
                  << " ref " << ref.temp.value() << " cap "
                  << dev.power_limit().value();
            };
            // Temperatures around the reference, inside the eps band.
            const auto near = [&](const SimulatedGpu::FixedPoint& ref) {
              std::vector<Celsius> ts;
              for (const double k : {-0.5, 0.0, 0.5}) {
                ts.push_back(ref.temp + k * eps);
              }
              return ts;
            };
            // Two references per state: solved from a cold and a hot start.
            for (const Celsius start :
                 {Celsius{coolant}, dev.fixed_point(dyn, Celsius{coolant}).temp +
                                        Celsius{5.0}}) {
              const auto ref = dev.fixed_point(dyn, start);
              // eps threshold, with the cap placed where the control law
              // accepts the equilibrium.
              dev.set_power_limit(ref.power + 0.5 * sku.dvfs_up_margin);
              for (int k = -4; k <= 4; ++k) {
                for (const double side : {-1.0, 1.0}) {
                  check(ref, ref.temp + side * (eps + Celsius{k * m / 2}));
                }
              }
              // Cap threshold: ref.power - cap within ±2m.
              for (int k = -4; k <= 4; ++k) {
                dev.set_power_limit(ref.power - Watts{k * m / 2});
                for (const Celsius t : near(ref)) check(ref, t);
              }
              // Up-margin threshold: cap - up_margin - ref.power within ±2m.
              for (int k = -4; k <= 4; ++k) {
                dev.set_power_limit(ref.power + sku.dvfs_up_margin +
                                    Watts{k * m / 2});
                for (const Celsius t : near(ref)) check(ref, t);
              }
            }
            // Slowdown threshold: move the inlet until the fixed point
            // sits within ±2m of slowdown - 2 (Newton on the inlet).
            for (int k = -4; k <= 4; ++k) {
              const Celsius target = slowdown + Celsius{k * m / 2};
              Celsius delta{};
              SimulatedGpu::FixedPoint ref{};
              for (int i = 0; i < 20; ++i) {
                dev.set_inlet_delta(delta);
                ref = dev.fixed_point(dyn, target);
                const double gain =
                    r * sku.leak_temp_coeff * power.leakage_power(ref.temp).value();
                delta += (target - ref.temp) * (1.0 - gain);
              }
              dev.set_inlet_delta(delta);
              ref = dev.fixed_point(dyn, Celsius{coolant});
              dev.set_power_limit(ref.power + 0.5 * sku.dvfs_up_margin);
              for (const Celsius t : near(ref)) check(ref, t);
            }
            dev.set_inlet_delta(Celsius{});
          }
        }
      }
    }
  }
  // The sweep reaches both sides of the thresholds.
  EXPECT_GT(refused, 1000);
  EXPECT_GT(accepted, 1000);
}

// A reference proves nothing where the leakage feedback may not
// contract: one that did not converge, or a start temperature above it
// where the slope R·k·leakage(T) exceeds ½.
TEST(FastForwardReference, NeverRefusesWithoutContraction) {
  const GpuSku sku = make_v100_sxm2();
  const SiliconSample chip;
  const PowerModel power(sku, chip);
  const MegaHertz f = sku.frequency_ladder().front();

  // R = 0.5 °C/W: the slope reaches ½ near 125 °C.
  const SimulatedGpu cool(sku, chip, ThermalParams{0.5, 100.0, Celsius{25.0}});
  const auto ref = cool.fixed_point(power.dynamic_power(f, 0.05), Celsius{25.0});
  ASSERT_TRUE(ref.converged);
  EXPECT_TRUE(cool.reference_refuses(ref, f, ref.temp + Celsius{10.0}));
  EXPECT_FALSE(cool.reference_refuses(ref, f, Celsius{130.0}));

  // R = 3 °C/W at full activity: thermal runaway, no fixed point.
  const SimulatedGpu hot(sku, chip, ThermalParams{3.0, 100.0, Celsius{25.0}});
  const auto runaway =
      hot.fixed_point(power.dynamic_power(sku.frequency_ladder().back(), 1.0),
                      Celsius{25.0});
  EXPECT_FALSE(runaway.converged);
  EXPECT_FALSE(hot.reference_refuses(runaway, f, Celsius{25.0}));
}

}  // namespace
}  // namespace gpuvar
