// Telemetry pipeline: run a campaign and export (a) one CSV row per run
// with medians — the format the paper's artifact ships — and (b) a full
// profiler-resolution time series for one GPU. Feed these to pandas/R.
//
//   $ ./fleet_telemetry_export out_dir
#include <filesystem>
#include <fstream>
#include <iostream>

#include "gpuvar.hpp"

int main(int argc, char** argv) {
  using namespace gpuvar;
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "telemetry_out";
  std::filesystem::create_directories(out_dir);

  Cluster cluster(vortex_spec());
  auto cfg = default_config(cluster, sgemm_workload(25536, 8), 2);
  const auto result = run_campaign(cluster, cfg);

  // Per-run summary CSV: one row per frame row.
  const auto summary_path = out_dir / "vortex_sgemm_runs.csv";
  {
    std::ofstream out(summary_path);
    export_frame_csv(out, cluster.name(), result.frame);
  }
  std::cout << "wrote " << result.frame.size() << " run rows to "
            << summary_path << "\n";

  // Full time series for GPU 0 (profiler resolution).
  RunOptions series_opts = RunOptions::for_sku(cluster.sku());
  series_opts.collect_series = true;
  series_opts.series_interval = Seconds{0.001};  // the 1 ms profiler floor
  const auto traced =
      run_on_gpu(cluster, 0, sgemm_workload(25536, 3), 0, series_opts);
  const auto series_path = out_dir / "vortex_gpu0_series.csv";
  {
    std::ofstream out(series_path);
    export_series_csv(out, traced.series);
  }
  std::cout << "wrote " << traced.series.size() << " samples to "
            << series_path << "\n";

  // And the analysis headline, so the CSV consumer knows what to expect.
  const auto rep = analyze_variability(result.frame);
  std::cout << "headline: " << rep.perf.variation_pct
            << "% performance variation across " << rep.gpus << " GPUs\n";
  return 0;
}
