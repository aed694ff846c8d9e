// Figure 8: normalized performance variation *within* a GPU across
// independent SGEMM runs, for Longhorn, Summit and Corona.
//
// Paper shape: medians of 0.44% (Longhorn), 0.12% (Summit) and 6.06%
// (Corona) — runs are repeatable on NVIDIA parts, far noisier on the AMD
// parts, and the noisiest repeaters are NOT the worst performers.
#include "bench_util.hpp"

using namespace gpuvar;

namespace {

void analyze(const ClusterSpec& spec) {
  Cluster cluster(spec);
  const std::size_t n = spec.sku.vendor == Vendor::kAmd ? 24576 : 25536;
  auto cfg = default_config(
      cluster, sgemm_workload(n, bench::sgemm_reps()),
      std::max(3, bench::runs_per_gpu()));
  const auto result = run_campaign(cluster, cfg);
  const auto reps = per_gpu_repeatability(result.frame);

  std::vector<double> vars, perf;
  for (const auto& r : reps) {
    vars.push_back(r.variation_pct);
    perf.push_back(r.median_perf_ms);
  }
  const auto box = stats::box_summary(vars);
  std::printf("  %-10s per-GPU run variation: median %5.2f%%  Q3 %5.2f%%  "
              "max %5.2f%%  (GPUs: %zu)\n",
              spec.name.c_str(), box.median, box.q3, box.max, reps.size());

  // Are the worst repeaters the worst performers? (paper: no)
  const double rho = stats::pearson(vars, perf);
  std::printf("    rho(per-GPU variation, median perf) = %+.2f — %s\n", rho,
              std::abs(rho) < 0.5 ? "noisy GPUs are NOT the slow GPUs"
                                  : "noise tracks slowness");
  std::cout << stats::render_box_chart(
      std::vector<stats::NamedSeries>{{spec.name, vars}},
      stats::BoxChartOptions{60, "%", true});
}

}  // namespace

int main() {
  bench::print_header("Figure 8",
                      "per-GPU run-to-run performance variation");
  analyze(longhorn_spec());
  analyze(summit_spec(0x5077, 8, 29, bench::summit_nodes_per_column(), 6));
  analyze(corona_spec());
  std::printf(
      "\nPaper shape: medians 0.44%% / 0.12%% / 6.06%% — ill-performing "
      "GPUs are consistently ill-performing.\n");
  return 0;
}
