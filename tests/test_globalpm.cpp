#include "core/globalpm.hpp"

#include <gtest/gtest.h>

#include "core/variability.hpp"
#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "gpu/device.hpp"
#include "gpu/kernel.hpp"
#include "query/source.hpp"  // IWYU pragma: keep (frame -> Source)
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

class GlobalPmTest : public ::testing::Test {
 protected:
  Cluster cluster_{vortex_spec()};  // fault-free: isolates the policy
  KernelSpec kernel_ = make_sgemm_kernel(25536);
};

TEST_F(GlobalPmTest, UniformSplitsEnvelope) {
  const auto a = uniform_assignment(cluster_, Watts{216.0 * 250.0});
  ASSERT_EQ(a.limits.size(), cluster_.size());
  for (Watts w : a.limits) EXPECT_DOUBLE_EQ(w.value(), 250.0);
  EXPECT_NEAR(a.total().value(), 216.0 * 250.0, 1e-6);
}

TEST_F(GlobalPmTest, UniformCapsAtTdp) {
  const auto a = uniform_assignment(cluster_, Watts{1e9});
  for (Watts w : a.limits) EXPECT_DOUBLE_EQ(w.value(), cluster_.sku().tdp.value());
}

TEST_F(GlobalPmTest, PredictedPowerMatchesSimulatedSteadyState) {
  const MegaHertz f{1200.0};
  for (std::size_t gi : {std::size_t{0}, std::size_t{77}}) {
    const Watts predicted =
        predicted_steady_power(cluster_, gi, kernel_, f);
    // Simulate the same GPU pinned by a cap exactly at the prediction:
    // it should settle at (or within a step of) the target frequency.
    SimOptions opts;
    opts.tick = cluster_.sku().dvfs_control_period;
    auto dev = cluster_.make_device(gi, opts, predicted + Watts{0.5});
    dev->run_kernel(kernel_, nullptr);
    dev->run_kernel(kernel_, nullptr);
    EXPECT_NEAR(dev->frequency().value(), f.value(),
                3.0 * cluster_.sku().ladder_step_mhz.value())
        << "gpu " << gi;
  }
}

TEST_F(GlobalPmTest, WorseBinsPredictMorePower) {
  // At a fixed frequency a worse chip must be predicted to draw more.
  std::size_t best = 0, worst = 0;
  double best_q = -1.0, worst_q = 2.0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    const double q = cluster_.gpu(i).silicon.quality_score(cluster_.sku());
    if (q > best_q) {
      best_q = q;
      best = i;
    }
    if (q < worst_q) {
      worst_q = q;
      worst = i;
    }
  }
  EXPECT_GT(predicted_steady_power(cluster_, worst, kernel_, MegaHertz{1300.0}),
            predicted_steady_power(cluster_, best, kernel_, MegaHertz{1300.0}));
}

TEST_F(GlobalPmTest, EqualFrequencyFitsTheEnvelope) {
  const Watts envelope{270.0 * static_cast<double>(cluster_.size())};
  const auto a = equal_frequency_assignment(cluster_, envelope, kernel_);
  ASSERT_EQ(a.limits.size(), cluster_.size());
  EXPECT_GT(a.target_freq, MegaHertz{1000.0});
  EXPECT_LE(a.total(), envelope + Watts{1e-6});
  // Worse bins get more power budget than better bins.
  double rho_check = 0.0;
  int n = 0;
  for (std::size_t i = 0; i + 1 < cluster_.size(); i += 2) {
    const double qa = cluster_.gpu(i).silicon.quality_score(cluster_.sku());
    const double qb =
        cluster_.gpu(i + 1).silicon.quality_score(cluster_.sku());
    if (qa == qb) continue;
    const bool worse_gets_more =
        (qa < qb) == (a.limits[i] > a.limits[i + 1]);
    rho_check += worse_gets_more ? 1.0 : 0.0;
    ++n;
  }
  EXPECT_GT(rho_check / n, 0.8);
}

TEST_F(GlobalPmTest, CoordinationReducesVariabilityAtSameEnvelope) {
  // The headline result: equal-frequency assignment under the same total
  // power dramatically narrows the performance spread.
  const Watts envelope{275.0 * static_cast<double>(cluster_.size())};
  const auto workload = sgemm_workload(25536, 6);

  const auto uniform = analyze_variability(
      run_under_assignment(cluster_, workload,
                           uniform_assignment(cluster_, envelope))
          .frame);
  const auto coordinated = analyze_variability(
      run_under_assignment(
          cluster_, workload,
          equal_frequency_assignment(cluster_, envelope, kernel_))
          .frame);

  EXPECT_LT(coordinated.perf.variation_pct,
            0.6 * uniform.perf.variation_pct);
  EXPECT_LT(coordinated.freq.variation_pct,
            0.6 * uniform.freq.variation_pct);
}

TEST_F(GlobalPmTest, TinyEnvelopeFallsBackToUniform) {
  const auto a = equal_frequency_assignment(cluster_, Watts{10.0}, kernel_);
  EXPECT_DOUBLE_EQ(a.target_freq.value(), 0.0);  // uniform fallback
  EXPECT_EQ(a.limits.size(), cluster_.size());
}

TEST_F(GlobalPmTest, RunUnderAssignmentValidates) {
  const auto a = uniform_assignment(cluster_, Watts{270.0 * static_cast<double>(cluster_.size())});
  EXPECT_THROW(
      run_under_assignment(cluster_, resnet50_multi_workload(3), a),
      std::invalid_argument);
  PowerAssignment wrong;
  wrong.limits.assign(3, Watts{200.0});
  EXPECT_THROW(run_under_assignment(cluster_, sgemm_workload(25536, 2), wrong),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
