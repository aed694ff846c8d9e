#include "gpu/kernel.hpp"
#include "common/units.hpp"
#include "gpu/silicon.hpp"
#include "gpu/sku.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace gpuvar {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  GpuSku sku_ = make_v100_sxm2();
  SiliconSample chip_;
};

TEST_F(KernelTest, SgemmFlopsExact) {
  const auto k = make_sgemm_kernel(1024);
  EXPECT_DOUBLE_EQ(k.flops, 2.0 * 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(k.fu_util, 10.0);  // the paper's measured FU util
}

TEST_F(KernelTest, SgemmIsComputeBoundAtPaperSize) {
  const auto k = make_sgemm_kernel(25536);
  EXPECT_LT(memory_boundedness(k, sku_, chip_, MegaHertz{1370.0}), 0.01);
  // Duration at the settled clock is in the paper's 2.3-2.6 s band.
  const double t = kernel_time_at(k, sku_, chip_, MegaHertz{1370.0}).value();
  EXPECT_GT(t, 2.2);
  EXPECT_LT(t, 2.8);
}

TEST_F(KernelTest, ComputeTimeInverseInFrequency) {
  const auto k = make_sgemm_kernel(4096);
  const double t1 = compute_time(k, sku_, MegaHertz{1000.0}).value();
  const double t2 = compute_time(k, sku_, MegaHertz{2000.0}).value();
  EXPECT_NEAR(t1 / t2, 2.0, 1e-9);
}

TEST_F(KernelTest, MemoryTimeIndependentOfFrequency) {
  KernelSpec k;
  k.name = "stream";
  k.bytes = 1e9;
  k.flops = 1.0;
  k.validate();
  EXPECT_DOUBLE_EQ(kernel_time_at(k, sku_, chip_, MegaHertz{1005.0}).value(),
                   kernel_time_at(k, sku_, chip_, MegaHertz{1530.0}).value());
}

TEST_F(KernelTest, RooflineTakesMax) {
  KernelSpec k;
  k.name = "mixed";
  k.flops = 1e12;
  k.bytes = 1e9;
  k.validate();
  const double t = kernel_time_at(k, sku_, chip_, MegaHertz{1400.0}).value();
  EXPECT_DOUBLE_EQ(
      t, std::max(compute_time(k, sku_, MegaHertz{1400.0}), memory_time(k, sku_, chip_)).value());
}

TEST_F(KernelTest, DegradedMemoryBandwidthSlowsMemoryBoundKernel) {
  KernelSpec k;
  k.name = "stream";
  k.bytes = 1e10;
  k.flops = 1.0;
  k.validate();
  SiliconSample degraded = chip_;
  degraded.mem_bw_factor = 0.25;
  EXPECT_NEAR(kernel_time_at(k, sku_, degraded, MegaHertz{1400.0}) /
                  kernel_time_at(k, sku_, chip_, MegaHertz{1400.0}),
              4.0, 1e-6);
}

TEST_F(KernelTest, MemoryBoundednessTransitionsWithFrequency) {
  // A balanced kernel becomes less memory-bound as the clock drops.
  KernelSpec k;
  k.name = "balanced";
  k.flops = 1e12;
  k.compute_efficiency = 1.0;
  k.bw_efficiency = 1.0;
  // Memory time equals compute time at ~1200 MHz.
  k.bytes = 1e12 / sku_.peak_flops(MegaHertz{1200.0}) * (sku_.mem_bw_gbps * 1e9);
  k.validate();
  EXPECT_GT(memory_boundedness(k, sku_, chip_, MegaHertz{1530.0}), 0.0);
  EXPECT_DOUBLE_EQ(memory_boundedness(k, sku_, chip_, MegaHertz{1005.0}), 0.0);
}

TEST_F(KernelTest, EffectiveActivityDropsWhenMemoryBound) {
  KernelSpec k;
  k.name = "stream";
  k.bytes = 1e10;
  k.flops = 1.0;
  k.activity = 0.8;
  k.stall_activity_floor = 0.3;
  k.validate();
  // Fully memory-bound: activity collapses to the floor share.
  EXPECT_NEAR(effective_activity(k, sku_, chip_, MegaHertz{1400.0}), 0.8 * 0.3, 0.01);
}

TEST_F(KernelTest, ComputeBoundKeepsFullActivity) {
  const auto k = make_sgemm_kernel(25536);
  EXPECT_NEAR(effective_activity(k, sku_, chip_, MegaHertz{1400.0}), 1.0, 0.02);
}

TEST_F(KernelTest, ValidateRejectsNonsense) {
  KernelSpec k;
  k.name = "empty";
  EXPECT_THROW(k.validate(), std::invalid_argument);  // no work
  k.flops = 1.0;
  k.activity = 1.5;
  EXPECT_THROW(k.validate(), std::invalid_argument);
  k.activity = 0.5;
  k.fu_util = 11.0;
  EXPECT_THROW(k.validate(), std::invalid_argument);
}

TEST_F(KernelTest, ValidateRejectsInfiniteWork) {
  const double inf = std::numeric_limits<double>::infinity();
  KernelSpec k;
  k.name = "endless";
  k.flops = inf;
  EXPECT_THROW(k.validate(), std::invalid_argument);
  k.flops = 1.0;
  k.bytes = inf;
  EXPECT_THROW(k.validate(), std::invalid_argument);
}

TEST_F(KernelTest, SgemmRejectsTinyMatrices) {
  EXPECT_THROW(make_sgemm_kernel(16), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
