// Figure 22: SGEMM performance variation on CloudLab while sweeping the
// enforced power limit from 100 W to 300 W (requires admin rights on real
// systems; §VI-B).
//
// Paper shape: kernel durations increase as the limit drops, and the
// variability *and* outlier count grow — 18% at 150 W versus 9% at 300 W
// (DVFS is less optimized for extreme budgets).
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figure 22",
                      "SGEMM under power limits on NSF CloudLab");
  Cluster cloudlab(cloudlab_spec());
  std::printf("%8s %10s %8s %10s %10s\n", "limit W", "median ms", "var %",
              "freq MHz", "power W");

  std::vector<stats::NamedSeries> series;
  for (double limit : {300.0, 250.0, 200.0, 150.0, 125.0, 100.0}) {
    auto cfg = default_config(
        cloudlab, sgemm_workload(25536, bench::sgemm_reps()),
        std::max(3, bench::runs_per_gpu()));
    cfg.run_options.power_limit_override = Watts{limit};
    const auto result = run_campaign(cloudlab, cfg);
    const auto report = analyze_variability(result.frame);
    std::printf("%8.0f %10.0f %8.2f %10.0f %10.0f\n", limit,
                report.perf.box.median, report.perf.variation_pct,
                report.freq.box.median, report.power.box.median);
    char label[16];
    std::snprintf(label, sizeof(label), "%3.0fW", limit);
    const auto perf = result.frame.metric(Metric::kPerf);
    series.push_back(stats::NamedSeries{
        label, std::vector<double>(perf.begin(), perf.end())});
  }
  std::printf("\nkernel duration by power limit:\n");
  std::cout << stats::render_box_chart(series,
                                       stats::BoxChartOptions{58, "ms", true});
  std::printf(
      "\nPaper shape: durations rise and variability roughly doubles "
      "between 300 W and 150 W caps.\n");
  return 0;
}
