// CSV export of run results and time series — the interchange format for
// feeding the suite's measurements into external analysis pipelines
// (pandas/R), mirroring the paper artifact's per-application CSV outputs.
//
// Deliberately decoupled from the layers above: callers pass the cluster
// name and the per-GPU location table instead of a Cluster (see
// Cluster::locations()), so the telemetry layer never includes cluster or
// workload headers.
#pragma once

#include <istream>
#include <ostream>
#include <span>
#include <string_view>

#include "common/location.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/run_result.hpp"
namespace gpuvar { class TimeSeries; }  // was: #include "gpu/timeseries.hpp"

namespace gpuvar {

/// One row per run result: location, performance metric, and the median /
/// mean / min / max of frequency, power and temperature. `locations` is
/// indexed by GpuRunResult::gpu_index (Cluster::locations() provides it).
void export_results_csv(std::ostream& out, std::string_view cluster_name,
                        std::span<const GpuLocation> locations,
                        std::span<const GpuRunResult> results);

/// One row per telemetry sample of one run's series.
void export_series_csv(std::ostream& out, const TimeSeries& series);

/// One row per frame row. Uses the legacy results schema (so any results
/// CSV consumer can read it; the frame stores only medians, so min/max
/// repeat the median and energy is 0) plus trailing columns that preserve
/// the full location and day tag, making import_results_frame a lossless
/// inverse: frame -> CSV -> frame re-exports byte-identically.
///
/// Metric values are written to 10 significant digits, so the imported
/// frame is not bit-identical to the original: an analysis of the CSV
/// can differ from the same analysis of the campaign's store in the last
/// printed digit, and in outlier counts and bootstrap intervals where
/// rounding creates or breaks ties (longhorn SGEMM at 30% coverage,
/// --reps 4 --runs 3: 15 power outliers from the store, 9 from its CSV;
/// flags, drift and correlations matched).
void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame);

/// Columnar import: the sole CSV ingestion path (the inverse of
/// export_results_csv / export_frame_csv, and the entry point for
/// measurements collected on real hardware). Accepts both the legacy
/// results schema and the extended export_frame_csv schema
/// (day_of_week / full-location columns are honoured when present).
RecordFrame import_results_frame(std::istream& in);

}  // namespace gpuvar
