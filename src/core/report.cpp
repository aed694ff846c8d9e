#include "core/report.hpp"

#include <cstdio>

#include "stats/ascii_plot.hpp"
#include "cluster/faults.hpp"
#include "core/correlate.hpp"
#include "core/flagging.hpp"
#include "core/variability.hpp"
#include "query/source.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

void print_section(std::ostream& out, const std::string& title) {
  out << "\n==== " << title << " ====\n";
}

namespace {

void print_metric_row(std::ostream& out, const char* label,
                      const MetricVariability& mv, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-12s median %9.2f %-3s  Q1 %9.2f  Q3 %9.2f  "
                "whiskers [%9.2f, %9.2f]  variation %6.2f%%  outliers %zu\n",
                label, mv.box.median, unit, mv.box.q1, mv.box.q3,
                mv.box.lo_whisker, mv.box.hi_whisker, mv.variation_pct,
                mv.box.outlier_count());
  out << buf;
}

}  // namespace

void print_variability_table(std::ostream& out, const VariabilityReport& r) {
  char head[128];
  std::snprintf(head, sizeof(head), "  records: %zu across %zu GPUs\n",
                r.records, r.gpus);
  out << head;
  print_metric_row(out, "perf", r.perf, "ms");
  print_metric_row(out, "frequency", r.freq, "MHz");
  print_metric_row(out, "power", r.power, "W");
  print_metric_row(out, "temperature", r.temp, "C");
}

void print_correlation_table(std::ostream& out, const CorrelationReport& r) {
  char buf[160];
  for (const auto* c : r.all()) {
    std::snprintf(buf, sizeof(buf),
                  "  rho(%-11s, %-11s) = %+5.2f  (spearman %+5.2f, %s)\n",
                  metric_name(c->y).c_str(), metric_name(c->x).c_str(),
                  c->rho, c->spearman, c->strength.c_str());
    out << buf;
  }
}

void print_group_boxes(std::ostream& out, const query::Source& source,
                       Metric metric, GroupBy group) {
  const auto series = series_by_group(source, metric, group);
  stats::BoxChartOptions opts;
  opts.unit = metric_unit(metric);
  out << metric_name(metric) << " by group:\n"
      << stats::render_box_chart(series, opts);
}

void print_scatter(std::ostream& out, const query::Source& source, Metric x,
                   Metric y) {
  stats::ScatterOptions opts;
  opts.x_label = metric_name(x) + " (" + metric_unit(x) + ")";
  opts.y_label = metric_name(y) + " (" + metric_unit(y) + ")";
  out << stats::render_scatter(source.metric(x), source.metric(y), opts);
}

void print_flags(std::ostream& out, const FlagReport& report,
                 std::size_t max_gpus) {
  if (report.gpus.empty() && report.cabinets.empty()) {
    out << "  no anomalies flagged\n";
    return;
  }
  std::size_t shown = 0;
  for (const auto& f : report.gpus) {
    if (shown++ >= max_gpus) {
      out << "  ... and " << (report.gpus.size() - max_gpus)
          << " more flagged GPUs\n";
      break;
    }
    out << "  [severity " << f.severity << "] " << f.name << ":";
    for (const auto& r : f.reasons) out << " " << to_string(r) << ";";
    out << "\n";
  }
  for (const auto& c : report.cabinets) {
    out << "  [cabinet " << c.cabinet << "] " << c.note << "\n";
  }
}

}  // namespace gpuvar
