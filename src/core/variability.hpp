// Variability analysis (§III "IQR & Variability"): box summaries per
// metric, per-group breakdowns (cabinet / row / column / day), and the
// per-GPU run-to-run repeatability of Figure 8.
//
// Every function here reads a query::Source, so the same analysis runs
// on an in-memory RecordFrame or streamed from a checkpointed campaign
// store (a RecordFrame converts implicitly to a frame-backed Source).
// The main entry point follows the unified analysis signature,
// analyze_variability(source, options).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stats/ascii_plot.hpp"
#include "stats/boxplot.hpp"
#include "telemetry/record.hpp"
namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct MetricVariability {
  stats::BoxSummary box;
  /// The paper's variation: whisker range / median, as a percentage.
  double variation_pct = 0.0;
};

struct VariabilityReport {
  MetricVariability perf;
  MetricVariability freq;
  MetricVariability power;
  MetricVariability temp;
  std::size_t records = 0;
  std::size_t gpus = 0;
};

/// Tunables for analyze_variability. No knobs yet; the struct exists
/// so every analysis shares the analyze_*(source, options) signature
/// and can grow options without breaking call sites.
struct VariabilityOptions {};

/// Full-population variability across all rows of the source.
VariabilityReport analyze_variability(const query::Source& source,
                                      const VariabilityOptions& options = {});

/// Grouping keys for breakdowns.
enum class GroupBy { kCabinet, kRow, kColumn, kNode, kDayOfWeek };

std::string group_label(GroupBy g, int key);

/// Extracts the group key of a record / of one source row.
int group_key(const RunRecord& r, GroupBy g);
int group_key(const query::Source& source, std::size_t row, GroupBy g);

/// Metric values split by group (ordered by key), ready for box charts.
std::vector<stats::NamedSeries> series_by_group(const query::Source& source,
                                                Metric metric, GroupBy group);

/// Per-group variability reports, ordered by key. The day split keeps
/// only days 0..6: rows of a campaign without a day sweep (day -1) are
/// left out.
std::map<int, VariabilityReport> variability_by_group(
    const query::Source& source, GroupBy group);

/// Figure 8: per-GPU run-to-run performance variation, (max-min)/median
/// per GPU, as a percentage. Requires >= 2 runs per GPU (GPUs with fewer
/// are skipped).
struct GpuRepeatability {
  std::size_t gpu_index = 0;
  std::string name;
  int runs = 0;
  double median_perf_ms = 0.0;
  double variation_pct = 0.0;
};

std::vector<GpuRepeatability> per_gpu_repeatability(
    const query::Source& source);

}  // namespace gpuvar
