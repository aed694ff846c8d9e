// CSV export of run results and time series — the interchange format for
// feeding the suite's measurements into external analysis pipelines
// (pandas/R), mirroring the paper artifact's per-application CSV outputs.
//
// Deliberately decoupled from the layers above: callers pass the cluster
// name instead of a Cluster, so the telemetry layer never includes
// cluster or workload headers.
//
// Both directions of the frame CSV run on a thread pool and give the
// same bytes, frame and errors at every pool size. The export formats
// blocks of rows on the pool with the one per-row formatter and writes
// them in row order, a bounded window of blocks at a time, so the whole
// file is never held in memory. The import splits the input on the pool
// (CsvReader), parses each row's numbers on the pool and interns the
// GPUs in one ordered serial pass; it throws the error a serial pass
// would: the reader's at the lowest bad line, else the importer's at
// the lowest bad line.
#pragma once

#include <istream>
#include <ostream>
#include <string_view>

#include "telemetry/frame.hpp"
namespace gpuvar { class TimeSeries; }  // was: #include "gpu/timeseries.hpp"

namespace gpuvar {

class ThreadPool;

/// One row per telemetry sample of one run's series.
void export_series_csv(std::ostream& out, const TimeSeries& series);

/// One row per frame row, one column per frame field: the cluster name,
/// then the GPU's name, gpu_index and location, the run, the four
/// metrics, the four counters and the day tag. Metric values are
/// written as the shortest strings that parse back to the same bits, so
/// import_results_frame is an exact inverse: every row keeps its
/// gpu_index and location, every metric comes back bit-identical, and
/// frame -> CSV -> frame re-exports the same bytes. A NaN or an
/// infinity in a metric is refused before any byte is written, with the
/// error the importer would give its line. Formats on `pool`, or on
/// ThreadPool::global() when it is null.
void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame, ThreadPool* pool = nullptr);

/// Columnar import: the sole CSV ingestion path (the inverse of
/// export_frame_csv, and the entry point for measurements collected on
/// real hardware). Every column export_frame_csv writes except `cluster`
/// is required; columns may come in any order. Throws
/// std::invalid_argument naming the 1-based line of the bad record
/// ("line 17: not a number 'abc' in column perf_ms"), including a
/// negative gpu_index and a gpu_index first seen with another name or
/// location. Parses on `pool`, or on ThreadPool::global() when it is
/// null.
RecordFrame import_results_frame(std::istream& in,
                                 ThreadPool* pool = nullptr);

}  // namespace gpuvar
