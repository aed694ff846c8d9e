// Micro-benchmarks for the simulator substrate (google-benchmark):
// per-kernel simulation cost, cluster construction, and full-campaign
// throughput — the numbers behind "18,800 hours of data in seconds".
#include <benchmark/benchmark.h>

#include "gpuvar.hpp"

namespace {

using namespace gpuvar;

void BM_SgemmKernelSim(benchmark::State& state) {
  const auto sku = make_v100_sxm2();
  const SiliconSample chip;
  SimOptions opts;
  opts.tick = sku.dvfs_control_period;
  opts.fast_forward = state.range(0) != 0;
  const auto k = make_sgemm_kernel(25536);
  double simulated = 0.0;
  for (auto _ : state) {
    SimulatedGpu dev(sku, chip, ThermalParams{0.1, 80.0, Celsius{28.0}}, opts);
    const auto r = dev.run_kernel(k, nullptr);
    simulated += r.duration.value();
    benchmark::DoNotOptimize(r.duration.value());
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      simulated, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmKernelSim)->Arg(0)->Arg(1);

void BM_DeviceTick(benchmark::State& state) {
  // Cost of one full-resolution tick (1 ms) including sampling.
  const auto sku = make_v100_sxm2();
  const SiliconSample chip;
  SimOptions opts;
  opts.fast_forward = false;
  SimulatedGpu dev(sku, chip, ThermalParams{0.1, 80.0, Celsius{28.0}}, opts);
  KernelSpec k;
  k.name = "endless";
  k.flops = 1e18;  // never finishes inside the benchmark loop
  k.activity = 1.0;
  Sampler sampler;
  // run_kernel processes whole kernels; instead measure short kernels.
  KernelSpec unit = k;
  unit.flops = 1e10;  // ~1 ms at boost
  for (auto _ : state) {
    const auto r = dev.run_kernel(unit, &sampler);
    benchmark::DoNotOptimize(r.duration.value());
  }
}
BENCHMARK(BM_DeviceTick);

void BM_ClusterConstruction(benchmark::State& state) {
  for (auto _ : state) {
    Cluster cluster(longhorn_spec());
    benchmark::DoNotOptimize(cluster.size());
  }
}
BENCHMARK(BM_ClusterConstruction);

void BM_VortexSgemmCampaign(benchmark::State& state) {
  Cluster vortex(vortex_spec());
  for (auto _ : state) {
    auto cfg = default_config(vortex, sgemm_workload(25536, 5), 1);
    const auto result = run_campaign(vortex, cfg);
    benchmark::DoNotOptimize(result.frame.size());
  }
  state.counters["gpu_runs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 216.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VortexSgemmCampaign)->Unit(benchmark::kMillisecond);

void BM_MultiGpuResnetNode(benchmark::State& state) {
  Cluster longhorn(longhorn_spec());
  const auto w = resnet50_multi_workload(20);
  const auto opts = RunOptions::for_sku(longhorn.sku());
  for (auto _ : state) {
    const auto results = run_on_node(longhorn, 3, w, 0, opts);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_MultiGpuResnetNode)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
