// Appendix B (Figures 23-26): drilling into Summit row H.
//
// Paper shape: most of row H's outliers come from a handful of columns
// (13, 14, 28, 33, 36); within row H column 36, 7 of 16 nodes show power
// outliers as low as 255 W while 9 are clean; the capped GPUs hold a flat
// frequency (~1312 MHz) while instantaneous power rises and falls under
// the cap; one node shows temperature-only outliers.
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figures 23-26", "Summit row H drilldown");
  Cluster summit(summit_spec(
      0x5077, 8, 29, std::max(4, bench::summit_nodes_per_column()), 6));
  const auto result = bench::sgemm_experiment(summit);

  // Row H only.
  std::vector<std::size_t> rowh_rows;
  for (std::size_t i = 0; i < result.frame.size(); ++i) {
    if (result.frame.loc(i).row == 7) rowh_rows.push_back(i);
  }
  const RecordFrame rowh = result.frame.select(rowh_rows);
  std::printf("row H records: %zu\n", rowh.size());

  print_section(std::cout, "Figure 23: row H by column");
  print_group_boxes(std::cout, rowh, Metric::kPerf, GroupBy::kColumn);
  print_group_boxes(std::cout, rowh, Metric::kPower, GroupBy::kColumn);

  print_section(std::cout, "Figure 24: row H correlations");
  print_correlation_table(std::cout, analyze_correlation(rowh));
  print_scatter(std::cout, rowh, Metric::kPower, Metric::kPerf);

  print_section(std::cout, "outlier columns (paper: 13, 14, 28, 33, 36)");
  const auto by_col = variability_by_group(rowh, GroupBy::kColumn);
  for (const auto& [col, rep] : by_col) {
    const auto n =
        rep.power.box.outlier_count() + rep.perf.box.outlier_count();
    if (n > 0) {
      std::printf("  col %02d: %zu power / %zu perf outliers, power min "
                  "%.0f W\n",
                  col + 1, rep.power.box.outlier_count(),
                  rep.perf.box.outlier_count(), rep.power.box.min);
    }
  }

  print_section(std::cout, "Figure 26: row H column 36 per node");
  std::vector<std::size_t> col36_rows;
  for (std::size_t i = 0; i < rowh.size(); ++i) {
    if (rowh.loc(i).column == 35) col36_rows.push_back(i);
  }
  const RecordFrame col36 = rowh.select(col36_rows);
  if (!col36.empty()) {
    print_group_boxes(std::cout, col36, Metric::kPower, GroupBy::kNode);
    print_group_boxes(std::cout, col36, Metric::kTemp, GroupBy::kNode);
  }

  print_section(std::cout, "Figure 25: a power-capped GPU's flat-frequency trace");
  // Find a capped GPU in row H and trace it.
  std::size_t capped = summit.size();
  for (std::size_t i = 0; i < summit.size(); ++i) {
    const auto& g = summit.gpu(i);
    if (g.loc.row == 7 && g.power_cap > Watts{}) {
      capped = i;
      break;
    }
  }
  if (capped < summit.size()) {
    RunOptions opts = RunOptions::for_sku(summit.sku());
    opts.collect_series = true;
    opts.series_interval = Seconds{0.02};
    const auto r =
        run_on_gpu(summit, capped, sgemm_workload(25536, 3), 0, opts);
    std::printf("  %s (cap %.0f W): median %.0f MHz at %.0f W\n",
                summit.gpu(capped).loc.name.c_str(),
                summit.gpu(capped).power_cap.value(), r.telemetry.freq.median,
                r.telemetry.power.median);
    stats::LineChartOptions fo;
    fo.y_label = "frequency (MHz)";
    std::cout << stats::render_line_chart(r.series.times(), r.series.freqs(),
                                          fo);
    stats::LineChartOptions po;
    po.y_label = "power (W)";
    std::cout << stats::render_line_chart(r.series.times(), r.series.powers(),
                                          po);
  }
  return 0;
}
