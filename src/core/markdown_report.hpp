// Markdown campaign reports: one self-contained document per campaign —
// the artifact an operator attaches to a maintenance ticket or a user
// attaches to a reproducibility report. Tables are GitHub-flavoured
// markdown; the content mirrors the paper's per-figure structure
// (variability table, per-group breakdown, correlations, flags).
#pragma once

#include <ostream>
#include <string>

#include "core/variability.hpp"
#include "common/units.hpp"
namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

struct MarkdownReportOptions {
  std::string title = "Variability campaign report";
  GroupBy group = GroupBy::kCabinet;
  /// Include the operator flag section (needs the SKU's slowdown temp for
  /// thermal attribution; <= 0 disables that refinement).
  bool include_flags = true;
  Celsius slowdown_temp{1e9};
  /// Bootstrap confidence interval on the headline variation (0 = skip).
  int bootstrap_resamples = 500;
};

/// Writes the full markdown report for one campaign's rows.
void write_markdown_report(std::ostream& out, const query::Source& source,
                           const MarkdownReportOptions& options = {});

/// One markdown table row per metric (exposed for composition/testing).
std::string markdown_variability_table(const VariabilityReport& report);

/// Escapes a string for use inside a markdown table cell.
std::string markdown_escape(const std::string& text);

}  // namespace gpuvar
