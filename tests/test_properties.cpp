// Parameterized property suites: invariants that must hold across whole
// parameter sweeps (SKUs, power limits, silicon draws, kernel shapes).
#include <gtest/gtest.h>

#include <cmath>

#include "gpuvar.hpp"

namespace gpuvar {
namespace {

GpuSku sku_by_name(const std::string& name) {
  if (name == "v100") return make_v100_sxm2();
  if (name == "rtx5000") return make_rtx5000();
  return make_mi60();
}

// ---------------------------------------------------------------------
// Property: DVFS never lets steady-state power exceed the limit by more
// than one control step's worth, for any SKU, chip, and power limit.
// ---------------------------------------------------------------------
class PowerCapProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(PowerCapProperty, SteadyPowerRespectsLimit) {
  const auto sku = sku_by_name(std::get<0>(GetParam()));
  const double limit = std::get<1>(GetParam());
  for (int chip_id = 0; chip_id < 4; ++chip_id) {
    SiliconSample chip =
        sample_silicon(sku, 11, "prop/chip:" + std::to_string(chip_id));
    SimOptions opts;
    opts.tick = sku.dvfs_control_period;
    SimulatedGpu dev(sku, chip, ThermalParams{0.1, 80.0, Celsius{28.0}}, opts);
    dev.set_power_limit(Watts{limit});
    const std::size_t n = sku.vendor == Vendor::kAmd ? 24576 : 25536;
    const auto k = make_sgemm_kernel(n);
    dev.run_kernel(k, nullptr);  // transient
    Sampler sampler;
    dev.run_kernel(k, &sampler, 1.0);
    const auto s = sampler.summary();
    // Median steady-state power within the limit (+0.5 W tolerance for
    // the quantile grid); short over-cap excursions are bounded by one
    // control step.
    EXPECT_LE(s.power.median, limit + 0.5) << sku.name;
    const double step_power =
        0.05 * limit + 30.0;  // generous single-step bound
    EXPECT_LE(s.power.max, limit + step_power) << sku.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkusAndLimits, PowerCapProperty,
    ::testing::Combine(::testing::Values("v100", "rtx5000", "mi60"),
                       ::testing::Values(150.0, 200.0, 250.0, 300.0)));

// ---------------------------------------------------------------------
// Property: lowering the power limit never makes a compute-bound kernel
// faster (monotonicity of the cap).
// ---------------------------------------------------------------------
class CapMonotonicityProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CapMonotonicityProperty, RuntimeMonotoneInPowerLimit) {
  const auto sku = sku_by_name(GetParam());
  SiliconSample chip;
  SimOptions opts;
  opts.tick = sku.dvfs_control_period;
  const std::size_t n = sku.vendor == Vendor::kAmd ? 24576 : 25536;
  const auto k = make_sgemm_kernel(n);
  double prev = 0.0;
  for (double limit : {300.0, 250.0, 200.0, 150.0, 100.0}) {
    SimulatedGpu dev(sku, chip, ThermalParams{0.08, 80.0, Celsius{25.0}}, opts);
    dev.set_power_limit(Watts{limit});
    dev.run_kernel(k, nullptr);
    const auto r = dev.run_kernel(k, nullptr);
    if (prev > 0.0) {
      EXPECT_GE(r.duration, Seconds{prev * 0.999})
          << sku.name << " at " << limit << " W";
    }
    prev = r.duration.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Skus, CapMonotonicityProperty,
                         ::testing::Values("v100", "rtx5000", "mi60"));

// ---------------------------------------------------------------------
// Property: temperature never exceeds the shutdown threshold (the
// slowdown throttle must kick in first), across cooling severities.
// ---------------------------------------------------------------------
class ThermalSafetyProperty : public ::testing::TestWithParam<double> {};

TEST_P(ThermalSafetyProperty, NeverReachesShutdown) {
  const auto sku = make_mi60();  // hottest SKU in the study
  SiliconSample chip;
  chip.leakage_factor = 1.4;  // leaky chip, worst case
  SimOptions opts;
  opts.tick = sku.dvfs_control_period;
  const ThermalParams hot{GetParam(), 60.0, Celsius{42.0}};
  SimulatedGpu dev(sku, chip, hot, opts);
  const auto k = make_sgemm_kernel(24576);
  for (int rep = 0; rep < 3; ++rep) {
    Sampler sampler;
    dev.run_kernel(k, &sampler, 1.0);
    EXPECT_LT(sampler.summary().temp.max, sku.shutdown_temp.value());
  }
}

INSTANTIATE_TEST_SUITE_P(CoolingSeverity, ThermalSafetyProperty,
                         ::testing::Values(0.15, 0.20, 0.25, 0.30));

// ---------------------------------------------------------------------
// Property: a worse silicon bin never settles at a higher frequency than
// a better bin under the same cap (ordering preservation).
// ---------------------------------------------------------------------
class BinOrderingProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(BinOrderingProperty, WorseBinNeverFaster) {
  const auto sku = sku_by_name(GetParam());
  SimOptions opts;
  opts.tick = sku.dvfs_control_period;
  const std::size_t n = sku.vendor == Vendor::kAmd ? 24576 : 25536;
  const auto k = make_sgemm_kernel(n);
  double prev_duration = 0.0;
  for (double sigmas : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
    SiliconSample chip;
    chip.vf_offset = sigmas * sku.spread.vf_offset_sigma;
    SimulatedGpu dev(sku, chip, ThermalParams{0.08, 80.0, Celsius{25.0}}, opts);
    dev.run_kernel(k, nullptr);
    const auto r = dev.run_kernel(k, nullptr);
    if (prev_duration > 0.0) {
      EXPECT_GE(r.duration, Seconds{prev_duration * 0.999}) << sku.name;
    }
    prev_duration = r.duration.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Skus, BinOrderingProperty,
                         ::testing::Values("v100", "rtx5000", "mi60"));

// ---------------------------------------------------------------------
// Property: fast-forward equals full simulation across workload shapes.
// ---------------------------------------------------------------------
class FastForwardProperty : public ::testing::TestWithParam<int> {};

TEST_P(FastForwardProperty, MatchesFullTickSimulation) {
  const auto sku = make_v100_sxm2();
  SiliconSample chip =
      sample_silicon(sku, 5, "ff/chip:" + std::to_string(GetParam()));
  KernelSpec k;
  switch (GetParam() % 3) {
    case 0:
      k = make_sgemm_kernel(25536);
      break;
    case 1:  // memory-bound streaming
      k.name = "stream";
      k.bytes = 3e10;
      k.flops = 1e9;
      k.activity = 0.5;
      break;
    default:  // balanced
      k.name = "balanced";
      k.flops = 8e12;
      k.bytes = 8e9;
      k.activity = 0.8;
      break;
  }
  SimOptions full;
  full.tick = sku.dvfs_control_period;
  full.fast_forward = false;
  SimOptions ff = full;
  ff.fast_forward = true;
  SimulatedGpu dev_full(sku, chip, ThermalParams{0.1, 80.0, Celsius{30.0}}, full);
  SimulatedGpu dev_ff(sku, chip, ThermalParams{0.1, 80.0, Celsius{30.0}}, ff);
  const auto rf = dev_full.run_kernel(k, nullptr);
  const auto rq = dev_ff.run_kernel(k, nullptr);
  EXPECT_NEAR(rq.duration.value(), rf.duration.value(), 0.01 * rf.duration.value());
  EXPECT_NEAR(rq.energy.value(), rf.energy.value(), 0.02 * rf.energy.value());
}

INSTANTIATE_TEST_SUITE_P(Chips, FastForwardProperty, ::testing::Range(0, 9));

// ---------------------------------------------------------------------
// Property: experiment records are invariant to the node-parallelism
// (determinism under scheduling).
// ---------------------------------------------------------------------
TEST(DeterminismProperty, RecordsIndependentOfThreadCount) {
  Cluster cluster(cloudlab_spec());
  auto cfg = default_config(cluster, sgemm_workload(16384, 3), 2);
  const auto a = run_campaign(cluster, cfg);
  // Force a serial pass through a fresh pool of size 1.
  ThreadPool serial(1);
  std::vector<RunRecord> serial_records;
  for (int node = 0; node < cluster.node_count(); ++node) {
    for (int run = 0; run < 2; ++run) {
      for (const auto& res :
           run_on_node(cluster, node, cfg.workload, run, cfg.run_options)) {
        serial_records.push_back(to_record(cluster, res));
      }
    }
  }
  ASSERT_EQ(a.frame.size(), serial_records.size());
  // Compare per-GPU aggregates (ordering may differ).
  RecordFrame serial_frame;
  serial_frame.reserve(serial_records.size());
  for (const auto& r : serial_records) serial_frame.append_row(r);
  const auto agg_a = per_gpu_medians(a.frame);
  const auto agg_b = per_gpu_medians(serial_frame);
  ASSERT_EQ(agg_a.size(), agg_b.size());
  for (std::size_t i = 0; i < agg_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(agg_a[i].perf_ms, agg_b[i].perf_ms);
    EXPECT_DOUBLE_EQ(agg_a[i].power_w, agg_b[i].power_w);
  }
}

// ---------------------------------------------------------------------
// Property: across a population, compute-bound runtime variation shrinks
// as process spread shrinks (the silicon-spread ablation invariant).
// ---------------------------------------------------------------------
class SpreadScalingProperty : public ::testing::TestWithParam<double> {};

TEST_P(SpreadScalingProperty, VariationTracksProcessSigma) {
  const double scale = GetParam();
  auto spec = vortex_spec();
  spec.name = "vortex-scaled";  // fresh seed paths per scale
  spec.sku.spread.vf_offset_sigma *= scale;
  spec.sku.spread.efficiency_sigma *= scale;
  spec.sku.spread.leakage_log_sigma *= scale;
  Cluster cluster(spec);
  auto cfg = default_config(cluster, sgemm_workload(25536, 6), 1);
  cfg.node_coverage = 0.6;
  const auto rep =
      analyze_variability(run_campaign(cluster, cfg).frame);
  if (scale <= 0.25) {
    EXPECT_LT(rep.perf.variation_pct, 6.0);
  } else if (scale >= 1.0) {
    EXPECT_GT(rep.perf.variation_pct, 5.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, SpreadScalingProperty,
                         ::testing::Values(0.0, 0.25, 1.0, 1.5));

// ---------------------------------------------------------------------
// Property: box-summary invariants over arbitrary record sets.
// ---------------------------------------------------------------------
class BoxInvariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxInvariantProperty, OrderAndContainment) {
  Rng rng(100 + GetParam());
  std::vector<double> xs;
  const int n = 3 + static_cast<int>(rng.uniform_index(500));
  for (int i = 0; i < n; ++i) {
    xs.push_back(rng.lognormal(3.0, rng.uniform(0.1, 1.0)));
  }
  const auto b = stats::box_summary(xs);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.lo_whisker, b.q1);
  EXPECT_GE(b.hi_whisker, b.q3);
  EXPECT_GE(b.min, b.lo_whisker - 1e9);  // min may be below the whisker
  EXPECT_LE(b.q1, b.max);
  // Every point is either inside the whiskers or listed as an outlier.
  std::size_t outside = 0;
  for (double x : xs) {
    if (b.is_outlier_value(x)) ++outside;
  }
  EXPECT_EQ(outside, b.outlier_count());
}

INSTANTIATE_TEST_SUITE_P(RandomSamples, BoxInvariantProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace gpuvar
