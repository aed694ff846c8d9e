#include "core/variability.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <utility>

#include "common/require.hpp"
#include "common/thread_pool.hpp"  // IWYU pragma: keep (Source::pool())
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

/// A report's metrics, in field order.
constexpr std::array<Metric, 4> kReportMetrics{Metric::kPerf, Metric::kFreq,
                                               Metric::kPower, Metric::kTemp};

/// A report's four per-metric fields, in kReportMetrics order.
std::array<MetricVariability*, 4> metric_slots(VariabilityReport& r) {
  return {&r.perf, &r.freq, &r.power, &r.temp};
}

/// The kReportMetrics columns, resolved on the calling thread so that
/// pool tasks read spans and never touch the Source.
std::array<std::span<const double>, 4> report_columns(
    const query::Source& source) {
  std::array<std::span<const double>, 4> columns;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    columns[k] = source.metric(kReportMetrics[k]);
  }
  return columns;
}

int location_key(const GpuLocation& loc, GroupBy g) {
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
      break;  // not a location field
  }
  return 0;
}

/// The group key of every row; each column is read from the source
/// once.
std::vector<int> group_keys(const query::Source& source, GroupBy group) {
  if (group == GroupBy::kDayOfWeek) {
    const auto days = source.days_of_week();
    return std::vector<int>(days.begin(), days.end());
  }
  const auto ids = source.gpu_ids();
  const auto pool = source.gpus();
  std::vector<int> keys;
  keys.reserve(ids.size());
  for (std::uint32_t id : ids) {
    keys.push_back(location_key(pool[id].loc, group));
  }
  return keys;
}

/// `value_of(row)` for every row, split by the row's group key (ordered
/// by key, source order within a group).
template <typename T, typename ValueOf>
std::map<int, std::vector<T>> split_by_group(const query::Source& source,
                                             GroupBy group,
                                             const ValueOf& value_of) {
  const std::vector<int> keys = group_keys(source, group);
  std::map<int, std::vector<T>> groups;
  // A GPU's rows share a key and mostly sit together, so the map is
  // searched only when the key changes (map references are stable).
  std::vector<T>* bucket = nullptr;
  int bucket_key = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (bucket == nullptr || keys[i] != bucket_key) {
      bucket_key = keys[i];
      bucket = &groups[bucket_key];
    }
    bucket->push_back(value_of(i));
  }
  return groups;
}

}  // namespace

VariabilityReport analyze_variability(const query::Source& source,
                                      const VariabilityOptions&) {
  GPUVAR_REQUIRE(!source.empty());
  const auto columns = report_columns(source);
  VariabilityReport r;
  const auto slots = metric_slots(r);
  // One task per metric, each writing only its own field.
  source.pool().parallel_for(slots.size(), [&](std::size_t k) {
    *slots[k] = analyze_metric(columns[k]);
  });
  r.records = source.size();
  r.gpus = source.gpu_count();
  return r;
}

int group_key(const RunRecord& r, GroupBy g) {
  return g == GroupBy::kDayOfWeek ? r.day_of_week : location_key(r.loc, g);
}

int group_key(const query::Source& source, std::size_t row, GroupBy g) {
  if (g == GroupBy::kDayOfWeek) return source.days_of_week()[row];
  return location_key(source.gpu(source.gpu_ids()[row]).loc, g);
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

std::vector<stats::NamedSeries> series_by_group(const query::Source& source,
                                                Metric metric, GroupBy group) {
  const auto column = source.metric(metric);
  std::vector<stats::NamedSeries> out;
  for (auto& [key, values] : split_by_group<double>(
           source, group, [&](std::size_t row) { return column[row]; })) {
    out.push_back(stats::NamedSeries{group_label(group, key),
                                     std::move(values)});
  }
  return out;
}

std::map<int, VariabilityReport> variability_by_group(
    const query::Source& source, GroupBy group) {
  const auto ids = source.gpu_ids();
  const auto columns = report_columns(source);
  const auto groups = split_by_group<std::size_t>(
      source, group, [](std::size_t row) { return row; });
  std::vector<std::pair<int, const std::vector<std::size_t>*>> picked;
  for (const auto& [key, rows] : groups) {
    if (group == GroupBy::kDayOfWeek && (key < 0 || key > 6)) continue;
    picked.emplace_back(key, &rows);
  }
  // One task per group: a group's four summaries run in sequence over
  // its own gathered values, and the report lands in its own slot.
  std::vector<VariabilityReport> reports(picked.size());
  source.pool().parallel_for(picked.size(), [&](std::size_t g) {
    const std::vector<std::size_t>& rows = *picked[g].second;
    std::vector<double> values(rows.size());
    VariabilityReport& r = reports[g];
    const auto slots = metric_slots(r);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        values[i] = columns[k][rows[i]];
      }
      *slots[k] = analyze_metric(values);
    }
    r.records = rows.size();
  });

  std::map<int, VariabilityReport> out;
  // Per pool id: the last group that counted it, for distinct-GPU counts.
  std::vector<std::size_t> counted_in(source.gpu_count(), 0);
  for (std::size_t g = 0; g < picked.size(); ++g) {
    VariabilityReport& r = reports[g];
    for (std::size_t row : *picked[g].second) {
      if (counted_in[ids[row]] == g + 1) continue;
      counted_in[ids[row]] = g + 1;
      ++r.gpus;
    }
    out.emplace(picked[g].first, std::move(r));
  }
  return out;
}

std::vector<GpuRepeatability> per_gpu_repeatability(
    const query::Source& source) {
  const auto groups = group_rows_by_gpu(source.frame());
  const auto perf_col = source.metric(Metric::kPerf);

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
    const GpuRef& g = source.gpu(id);
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

}  // namespace gpuvar
