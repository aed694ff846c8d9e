// CSV export of run results and time series — the interchange format for
// feeding the suite's measurements into external analysis pipelines
// (pandas/R), mirroring the paper artifact's per-application CSV outputs.
//
// Deliberately decoupled from the layers above: callers pass the cluster
// name instead of a Cluster, so the telemetry layer never includes
// cluster or workload headers.
#pragma once

#include <istream>
#include <ostream>
#include <string_view>

#include "telemetry/frame.hpp"
namespace gpuvar { class TimeSeries; }  // was: #include "gpu/timeseries.hpp"

namespace gpuvar {

/// One row per telemetry sample of one run's series.
void export_series_csv(std::ostream& out, const TimeSeries& series);

/// One row per frame row. Uses the legacy results schema (so any results
/// CSV consumer can read it; the frame stores only medians, so min/max
/// repeat the median and energy is 0) plus trailing columns that preserve
/// the full location and day tag. Metric values are written as the
/// shortest strings that parse back to the same bits, so
/// import_results_frame is an exact inverse: every metric column comes
/// back bit-identical, and frame -> CSV -> frame re-exports the same
/// bytes.
void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame);

/// Columnar import: the sole CSV ingestion path (the inverse of
/// export_frame_csv, and the entry point for measurements collected on
/// real hardware). Accepts both the legacy results schema and the
/// extended export_frame_csv schema (day_of_week / full-location columns
/// are honoured when present). Throws std::invalid_argument naming the
/// 1-based line of the bad record ("line 17: not a number 'abc' in
/// column perf_ms").
RecordFrame import_results_frame(std::istream& in);

}  // namespace gpuvar
