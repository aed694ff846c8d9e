#include "core/markdown_report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gpuvar.hpp"

namespace gpuvar {
namespace {

RecordFrame sample_campaign() {
  Cluster cloudlab(cloudlab_spec());
  auto cfg = default_config(cloudlab, sgemm_workload(25536, 5), 2);
  return run_campaign(cloudlab, cfg).frame;
}

TEST(MarkdownReport, EscapesTableBreakers) {
  EXPECT_EQ(markdown_escape("a|b"), "a\\|b");
  EXPECT_EQ(markdown_escape("a\nb"), "a<br>b");
  EXPECT_EQ(markdown_escape("plain"), "plain");
}

TEST(MarkdownReport, VariabilityTableIsValidMarkdown) {
  const auto records = sample_campaign();
  const auto table =
      markdown_variability_table(analyze_variability(records));
  // Header + separator + four metric rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 6);
  EXPECT_NE(table.find("| performance |"), std::string::npos);
  EXPECT_NE(table.find("| temperature |"), std::string::npos);
  // Every row has the same column count.
  std::istringstream lines(table);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), '|'), 8) << line;
  }
}

TEST(MarkdownReport, FullReportHasAllSections) {
  const auto records = sample_campaign();
  std::ostringstream out;
  MarkdownReportOptions opts;
  opts.title = "CloudLab SGEMM";
  opts.slowdown_temp = Celsius{87.0};
  write_markdown_report(out, records, opts);
  const std::string text = out.str();
  for (const char* needle :
       {"# CloudLab SGEMM", "## Variability", "## Correlations",
        "## Per-group breakdown", "## Operator flags",
        "bootstrap CI"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(MarkdownReport, FlagsSectionOptional) {
  const auto records = sample_campaign();
  std::ostringstream out;
  MarkdownReportOptions opts;
  opts.include_flags = false;
  opts.bootstrap_resamples = 0;
  write_markdown_report(out, records, opts);
  const std::string text = out.str();
  EXPECT_EQ(text.find("## Operator flags"), std::string::npos);
  EXPECT_EQ(text.find("bootstrap"), std::string::npos);
}

TEST(MarkdownReport, GroupSelectionRespected) {
  const auto records = sample_campaign();
  std::ostringstream out;
  MarkdownReportOptions opts;
  opts.group = GroupBy::kNode;
  opts.bootstrap_resamples = 0;
  write_markdown_report(out, records, opts);
  EXPECT_NE(out.str().find("node 00"), std::string::npos);
}

TEST(MarkdownReport, EmptyFrameThrows) {
  std::ostringstream out;
  RecordFrame none;
  EXPECT_THROW(write_markdown_report(out, none), std::invalid_argument);
}

}  // namespace
}  // namespace gpuvar
