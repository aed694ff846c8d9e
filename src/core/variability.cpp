#include "core/variability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/require.hpp"
#include "query/source.hpp"
#include "stats/kernels.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/boxplot.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"
#include "common/location.hpp"

namespace gpuvar {

namespace {

MetricVariability analyze_metric(std::span<const double> column) {
  MetricVariability out;
  out.box = stats::box_summary(column);
  out.variation_pct =
      out.box.median != 0.0 ? out.box.variation() * 100.0 : 0.0;
  return out;
}

}  // namespace

VariabilityReport analyze_variability(const query::Source& source,
                                      const VariabilityOptions&) {
  GPUVAR_REQUIRE(!source.empty());
  VariabilityReport r;
  r.perf = analyze_metric(source.metric(Metric::kPerf));
  r.freq = analyze_metric(source.metric(Metric::kFreq));
  r.power = analyze_metric(source.metric(Metric::kPower));
  r.temp = analyze_metric(source.metric(Metric::kTemp));
  r.records = source.size();
  r.gpus = source.gpu_count();
  return r;
}

int group_key(const RunRecord& r, GroupBy g) {
  switch (g) {
    case GroupBy::kCabinet:
      return r.loc.cabinet;
    case GroupBy::kRow:
      return r.loc.row;
    case GroupBy::kColumn:
      return r.loc.column;
    case GroupBy::kNode:
      return r.loc.node;
    case GroupBy::kDayOfWeek:
      return r.day_of_week;
  }
  return 0;
}

int group_key(const RecordFrame& frame, std::size_t row, GroupBy g) {
  if (g == GroupBy::kDayOfWeek) return frame.day_of_week(row);
  const GpuLocation& loc = frame.loc(row);
  switch (g) {
    case GroupBy::kCabinet:
      return loc.cabinet;
    case GroupBy::kRow:
      return loc.row;
    case GroupBy::kColumn:
      return loc.column;
    case GroupBy::kNode:
      return loc.node;
    case GroupBy::kDayOfWeek:
      break;  // handled above
  }
  return 0;
}

std::string group_label(GroupBy g, int key) {
  char buf[32];
  switch (g) {
    case GroupBy::kCabinet:
      std::snprintf(buf, sizeof(buf), "c%03d", key);
      return buf;
    case GroupBy::kRow:
      std::snprintf(buf, sizeof(buf), "row %c",
                    static_cast<char>('A' + std::max(0, key)));
      return buf;
    case GroupBy::kColumn:
      std::snprintf(buf, sizeof(buf), "col %02d", key + 1);
      return buf;
    case GroupBy::kNode:
      std::snprintf(buf, sizeof(buf), "node %03d", key);
      return buf;
    case GroupBy::kDayOfWeek: {
      static const char* days[] = {"Mon", "Tue", "Wed", "Thu",
                                   "Fri", "Sat", "Sun"};
      if (key >= 0 && key < 7) return days[key];
      return "day ?";
    }
  }
  return "?";
}

std::vector<stats::NamedSeries> series_by_group(const RecordFrame& frame,
                                                Metric metric, GroupBy group) {
  const auto column = frame.metric(metric);
  std::map<int, std::vector<double>> groups;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    groups[group_key(frame, i, group)].push_back(column[i]);
  }
  std::vector<stats::NamedSeries> out;
  out.reserve(groups.size());
  for (auto& [key, values] : groups) {
    out.push_back(stats::NamedSeries{group_label(group, key),
                                     std::move(values)});
  }
  return out;
}

std::map<int, VariabilityReport> variability_by_group(const RecordFrame& frame,
                                                      GroupBy group) {
  std::map<int, VariabilityReport> out;
  if (group == GroupBy::kDayOfWeek) {
    // The day split keys off a dense int16 column, so each group is
    // one vectorized range-mask + mask-select instead of a per-row
    // std::map of row-index lists.
    const auto days = frame.days_of_week();
    std::vector<std::uint8_t> mask(days.size());
    for (int day = 0; day < 7; ++day) {
      stats::kernels::mask_range_i16(days, day, day, mask);
      if (stats::kernels::mask_count(mask) == 0) continue;
      out.emplace(day, analyze_variability(frame.select(mask)));
    }
    return out;
  }
  std::map<int, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    groups[group_key(frame, i, group)].push_back(i);
  }
  for (const auto& [key, rows] : groups) {
    out.emplace(key, analyze_variability(frame.select(rows)));
  }
  return out;
}

std::vector<GpuRepeatability> per_gpu_repeatability(const RecordFrame& frame) {
  const auto groups = group_rows_by_gpu(frame);
  const auto perf_col = frame.perf_ms();

  std::vector<GpuRepeatability> out;
  std::vector<double> perf;
  for (std::uint32_t id : groups.order) {
    const std::size_t begin = groups.offsets[id];
    const std::size_t end = groups.offsets[id + 1];
    if (end - begin < 2) continue;
    perf.clear();
    perf.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      perf.push_back(perf_col[groups.rows[i]]);
    }
    const GpuRef& g = frame.gpu(id);
    GpuRepeatability rep;
    rep.gpu_index = g.gpu_index;
    rep.name = g.loc.name;
    rep.runs = static_cast<int>(perf.size());
    // min/max sweep before the median: median_inplace permutes the
    // scratch (that is what saves the per-GPU sorted copy).
    const stats::kernels::MinMax mm = stats::kernels::min_max(perf);
    rep.median_perf_ms = stats::kernels::median_inplace(perf);
    GPUVAR_ASSERT(rep.median_perf_ms > 0.0);
    rep.variation_pct = (mm.max - mm.min) / rep.median_perf_ms * 100.0;
    out.push_back(std::move(rep));
  }
  return out;
}

double slow_assignment_probability(const RecordFrame& frame, int gpus_per_job,
                                   double slowdown_threshold) {
  GPUVAR_REQUIRE(gpus_per_job >= 1);
  GPUVAR_REQUIRE(slowdown_threshold > 0.0);
  const auto gpus = per_gpu_medians(frame);
  GPUVAR_REQUIRE(!gpus.empty());
  std::vector<double> perf;
  perf.reserve(gpus.size());
  for (const auto& g : gpus) perf.push_back(g.perf_ms);
  // In-place selection: the count below only reads values, so the
  // permutation is harmless.
  const double med = stats::kernels::median_inplace(perf);
  std::size_t slow = 0;
  for (double p : perf) {
    if (p > med * (1.0 + slowdown_threshold)) ++slow;
  }
  const double p_slow =
      static_cast<double>(slow) / static_cast<double>(perf.size());
  // P(at least one of k independent draws is slow).
  return 1.0 - std::pow(1.0 - p_slow, gpus_per_job);
}

}  // namespace gpuvar
