// Analysis pass: keeps the analysis plane on the unified signature.
//
//   analysis-signature   in a src/core *header*, an analyze_* function
//                        whose parameter list does not end in a
//                        `const <X>Options&` parameter, or one of the
//                        pre-redesign entry-point spellings
//                        (flag_anomalies, detect_performance_drift,
//                        compare_campaigns, impact_table,
//                        correlate_metrics). Every analysis entry point
//                        takes its tunables as one trailing options
//                        struct — analyze_*(source, options) — so call
//                        sites never grow positional parameter lists.
//                        The forwarding shims of the one-cycle
//                        deprecation window are gone, so the rule is
//                        strict (like row-record-param): an allow()
//                        cannot bring a legacy spelling back.
//
// Helper functions (correlate_pair, job_impact, estimate_run_noise_ms)
// are not entry points and are not matched: the rule targets the
// analyze_* surface plus the known legacy spellings.
#include <array>
#include <string>

#include "passes.hpp"
#include "core.hpp"

namespace gpuvar::analyzer {

namespace {

/// The pre-redesign entry-point names, finding-worthy by spelling alone
/// (their replacements are the analyze_* functions).
constexpr std::array<const char*, 5> kLegacyEntryPoints = {
    "flag_anomalies", "detect_performance_drift", "compare_campaigns",
    "impact_table", "correlate_metrics"};

bool legacy_entry_point(const std::string& name) {
  for (const char* legacy : kLegacyEntryPoints) {
    if (name == legacy) return true;
  }
  return false;
}

/// True when the parameter list spanning [open, close) — close just
/// past the ')' — ends in a `const <X>Options&` parameter. A default
/// argument after the type is fine; a pointer or by-value options
/// parameter is not.
bool ends_with_options_param(const std::string& code, std::size_t open,
                             std::size_t close) {
  // Find the start of the last top-level parameter segment.
  int depth = 0;
  std::size_t seg = open + 1;
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}' || c == '>') {
      --depth;
    } else if (c == ',' && depth == 0) {
      seg = i + 1;
    }
  }
  std::string text = code.substr(seg, close - 1 - seg);
  const std::size_t eq = text.find('=');
  if (eq != std::string::npos) text.resize(eq);  // drop the default arg

  // The segment must tokenize as `const`, an identifier ending in
  // "Options", a '&', and at most a parameter name.
  std::vector<std::string> words;
  bool ref = false;
  std::string cur;
  for (const char c : text) {
    if (ident_char(c)) {
      cur += c;
      continue;
    }
    if (!cur.empty()) {
      words.push_back(cur);
      cur.clear();
    }
    if (c == '&') ref = true;
    if (c == '*') return false;
  }
  if (!cur.empty()) words.push_back(cur);
  if (!ref || words.size() < 2 || words.size() > 3 || words[0] != "const") {
    return false;
  }
  const std::string& type = words[1];
  const std::string suffix = "Options";
  return type.size() > suffix.size() &&
         type.compare(type.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void run_analysis_pass(const Repo& repo, std::vector<Finding>& findings) {
  for (const auto& f : repo.files) {
    if (!f.in_src() || !f.header || f.module != "core") continue;
    for (const Token& t : f.tokens) {
      if (t.next != '(') continue;
      const bool unified = t.text.rfind("analyze_", 0) == 0;
      const bool legacy = legacy_entry_point(t.text);
      if (!unified && !legacy) continue;
      const std::size_t open = f.code.find('(', t.pos + t.text.size());
      if (open == std::string::npos) continue;
      const std::size_t close = matching_paren_end(f.code, open);
      if (close == std::string::npos) continue;
      if (legacy) {
        findings.push_back(
            {f.rel, t.line, "analysis-signature",
             "deprecated analysis entry point '" + t.text +
                 "': the unified surface is analyze_*(source, const "
                 "...Options&); the deprecation cycle is over and this "
                 "rule is strict",
             t.text});
      } else if (!ends_with_options_param(f.code, open, close)) {
        findings.push_back(
            {f.rel, t.line, "analysis-signature",
             "'" + t.text +
                 "' does not end in a const <X>Options& parameter: "
                 "analysis entry points share the analyze_*(source, "
                 "options) shape — one trailing options struct, never a "
                 "positional tunable list",
             t.text});
      }
    }
  }
}

}  // namespace gpuvar::analyzer
