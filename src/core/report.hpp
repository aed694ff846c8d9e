// Text rendering of analysis results — the bench binaries print the
// paper's tables and figures through these helpers.
#pragma once

#include <ostream>
#include <string>

namespace gpuvar { struct CorrelationReport; }  // was: #include "core/correlate.hpp"
namespace gpuvar { struct FlagReport; }  // was: #include "core/flagging.hpp"
#include "core/variability.hpp"
#include "telemetry/record.hpp"
namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

/// "==== title ====" section banner.
void print_section(std::ostream& out, const std::string& title);

/// Four-row table: perf/freq/power/temp box statistics + variation %.
void print_variability_table(std::ostream& out, const VariabilityReport& r);

/// The paper's correlation summary (ρ per metric pair + strength label).
void print_correlation_table(std::ostream& out, const CorrelationReport& r);

/// Grouped box chart for one metric (one row per cabinet/row/day).
void print_group_boxes(std::ostream& out, const query::Source& source,
                       Metric metric, GroupBy group);

/// ASCII scatter of two metrics.
void print_scatter(std::ostream& out, const query::Source& source, Metric x,
                   Metric y);

/// Flag report, most severe first.
void print_flags(std::ostream& out, const FlagReport& report,
                 std::size_t max_gpus = 12);

}  // namespace gpuvar
