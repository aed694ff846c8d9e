// Figures 20 & 21: SGEMM variability per day of the week on Summit and
// Longhorn.
//
// Paper shape: the variation is essentially identical on every day (the
// effect is persistent hardware, not a transient of when you measure);
// only the count of outliers fluctuates a little day to day.
#include "bench_util.hpp"

using namespace gpuvar;

namespace {

void week_of(const ClusterSpec& spec) {
  Cluster cluster(spec);
  std::printf("\n%s:\n", spec.name.c_str());
  std::vector<stats::NamedSeries> series;
  for (int day = 0; day < 7; ++day) {
    const auto result = bench::sgemm_experiment(cluster, day);
    const auto report = analyze_variability(result.frame);
    std::printf("  %s: perf variation %5.2f%%  median %6.0f ms  power "
                "outliers %3zu  perf outliers %3zu\n",
                group_label(GroupBy::kDayOfWeek, day).c_str(),
                report.perf.variation_pct, report.perf.box.median,
                report.power.box.outlier_count(),
                report.perf.box.outlier_count());
    const auto perf_col = result.frame.metric(Metric::kPerf);
    std::vector<double> perf(perf_col.begin(), perf_col.end());
    series.push_back(stats::NamedSeries{
        group_label(GroupBy::kDayOfWeek, day), std::move(perf)});
  }
  std::cout << stats::render_box_chart(series,
                                       stats::BoxChartOptions{60, "ms", true});
}

}  // namespace

int main() {
  bench::print_header("Figures 20-21",
                      "day-of-week stability (Summit & Longhorn)");
  week_of(summit_spec(0x5077, 8, 29,
                      std::max(1, bench::summit_nodes_per_column() / 2), 6));
  week_of(longhorn_spec());
  std::printf(
      "\nTakeaway 9: variability is consistent throughout the week — the "
      "observations hold regardless of when experiments run.\n");
  return 0;
}
