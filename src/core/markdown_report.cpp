#include "core/markdown_report.hpp"

#include <cstdio>

#include "common/require.hpp"
#include "core/correlate.hpp"
#include "stats/bootstrap.hpp"
#include "cluster/faults.hpp"
#include "core/flagging.hpp"
#include "core/variability.hpp"
#include "query/source.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

std::string markdown_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '|') {
      out += "\\|";
    } else if (c == '\n') {
      out += "<br>";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string metric_row(const std::string& label, const MetricVariability& mv,
                       const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "| %s | %.2f %s | %.2f | %.2f | [%.2f, %.2f] | %.2f%% | %zu |\n",
                label.c_str(), mv.box.median, unit.c_str(), mv.box.q1,
                mv.box.q3, mv.box.lo_whisker, mv.box.hi_whisker,
                mv.variation_pct, mv.box.outlier_count());
  return buf;
}

}  // namespace

std::string markdown_variability_table(const VariabilityReport& report) {
  std::string out =
      "| metric | median | Q1 | Q3 | whiskers | variation | outliers |\n"
      "|---|---|---|---|---|---|---|\n";
  out += metric_row("performance", report.perf, "ms");
  out += metric_row("frequency", report.freq, "MHz");
  out += metric_row("power", report.power, "W");
  out += metric_row("temperature", report.temp, "°C");
  return out;
}

void write_markdown_report(std::ostream& out, const query::Source& source,
                           const MarkdownReportOptions& options) {
  GPUVAR_REQUIRE(!source.empty());
  const auto report = analyze_variability(source);

  out << "# " << markdown_escape(options.title) << "\n\n"
      << report.records << " runs across " << report.gpus << " GPUs.\n\n";

  out << "## Variability\n\n" << markdown_variability_table(report) << "\n";

  if (options.bootstrap_resamples > 0 && report.gpus >= 3) {
    const auto gpus = per_gpu_medians(source.frame());
    std::vector<double> perf;
    for (const auto& g : gpus) perf.push_back(g.perf_ms);
    const auto ci = stats::bootstrap_ci(perf, stats::variation_pct_statistic,
                                        options.bootstrap_resamples, 0.95);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Headline performance variation: **%.2f%%** "
                  "(95%% bootstrap CI [%.2f%%, %.2f%%]).\n\n",
                  ci.point, ci.lo, ci.hi);
    out << buf;
  }

  out << "## Correlations\n\n"
      << "| pair | Pearson | Spearman | strength |\n|---|---|---|---|\n";
  const auto corr = analyze_correlation(source);
  for (const auto* c : corr.all()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "| %s vs %s | %+.2f | %+.2f | %s |\n",
                  metric_name(c->y).c_str(), metric_name(c->x).c_str(),
                  c->rho, c->spearman, c->strength.c_str());
    out << buf;
  }
  out << "\n";

  out << "## Per-group breakdown\n\n"
      << "| group | GPUs | perf median (ms) | perf variation | power "
         "outliers |\n|---|---|---|---|---|\n";
  for (const auto& [key, rep] : variability_by_group(source, options.group)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "| %s | %zu | %.1f | %.2f%% | %zu |\n",
                  group_label(options.group, key).c_str(), rep.gpus,
                  rep.perf.box.median, rep.perf.variation_pct,
                  rep.power.box.outlier_count());
    out << buf;
  }
  out << "\n";

  if (options.include_flags) {
    out << "## Operator flags\n\n";
    FlagOptions fopts;
    fopts.slowdown_temp = options.slowdown_temp;
    const auto flags = analyze_flags(source, fopts);
    if (flags.gpus.empty() && flags.cabinets.empty()) {
      out << "No anomalies flagged.\n";
    } else {
      out << "| GPU | severity | reasons |\n|---|---|---|\n";
      for (const auto& f : flags.gpus) {
        out << "| " << markdown_escape(f.name) << " | ";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", f.severity);
        out << buf << " | ";
        for (std::size_t i = 0; i < f.reasons.size(); ++i) {
          if (i) out << "; ";
          out << to_string(f.reasons[i]);
        }
        out << " |\n";
      }
      for (const auto& c : flags.cabinets) {
        out << "\n**Cabinet " << c.cabinet
            << "**: " << markdown_escape(c.note) << "\n";
      }
    }
  }
}

}  // namespace gpuvar
