// Reduction hygiene over the analysis planes (src/core, src/query):
// hand-rolled floating-point reductions bypass stats/kernels.hpp, and
// with it the pinned 4-lane accumulation order the determinism
// contract is built on. Two shapes fire
// raw-loop-reduction:
//
//   - a range-for whose loop variable is declared double (by value,
//     const, or reference) with a `+=` accumulation in its body —
//     the textbook serial sum the kernels replaced;
//   - the <numeric> reduction algorithms (std::accumulate, reduce,
//     inner_product, transform_reduce), whose seed-and-fold order is
//     neither vectorized nor the kernels' lane order.
//
// Integer loops (counters, histogram bins) are out of scope: their
// reduction order cannot change the result.
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "core.hpp"
#include "passes.hpp"

namespace gpuvar::analyzer {

namespace {

bool word_at(const std::string& code, std::size_t pos,
             const std::string& word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(code[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= code.size() || !ident_char(code[end]);
}

/// Index just past the block that starts at `open` ('{'), npos when
/// unbalanced.
std::size_t matching_brace_end(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// A single ':' at paren depth 0 of a for-header is the range-for
/// separator; "::" is qualification.
bool is_range_for_header(const std::string& header) {
  int depth = 0;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == '(' || header[i] == '<') ++depth;
    if (header[i] == ')' || header[i] == '>') --depth;
    if (header[i] == ':' && depth == 0) {
      const bool left = i > 0 && header[i - 1] == ':';
      const bool right = i + 1 < header.size() && header[i + 1] == ':';
      if (!left && !right) return true;
    }
  }
  return false;
}

/// The declared-element-type half of a range-for header (before the
/// ':') names double — `double x`, `const double& x` — so the loop
/// walks a floating-point column, not indices or pairs.
bool declares_double(const std::string& header) {
  std::size_t pos = 0;
  while ((pos = header.find("double", pos)) != std::string::npos) {
    if (word_at(header, pos, "double")) return true;
    pos += 6;
  }
  return false;
}

void check_range_for(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& code = f.code;
  for (const auto& t : f.tokens) {
    if (t.text != "for" || t.next != '(') continue;
    const std::size_t open = code.find('(', t.pos);
    if (open == std::string::npos) continue;
    const std::size_t close = matching_paren_end(code, open);
    if (close == std::string::npos) continue;
    const std::string header = code.substr(open + 1, close - open - 1);
    if (!is_range_for_header(header) || !declares_double(header)) continue;

    // The body: a braced block, or the single statement up to ';'.
    std::size_t b = close + 1;
    while (b < code.size() &&
           std::isspace(static_cast<unsigned char>(code[b]))) {
      ++b;
    }
    std::size_t body_end;
    if (b < code.size() && code[b] == '{') {
      body_end = matching_brace_end(code, b);
    } else {
      body_end = code.find(';', b);
    }
    if (body_end == std::string::npos) continue;
    const std::string body = code.substr(b, body_end - b);
    const std::size_t acc = body.find("+=");
    if (acc == std::string::npos) continue;
    findings.push_back(
        {f.rel, f.line_of(b + acc), "raw-loop-reduction",
         "serial '+=' over a double range: the fold order is neither "
         "vectorized nor the kernels' pinned lane order — use "
         "stats::kernels::sum / centered_sumsq / describe_sweep"});
  }
}

void check_numeric_algorithms(const SourceFile& f,
                              std::vector<Finding>& findings) {
  static const std::set<std::string> kAlgos = {
      "accumulate", "reduce", "inner_product", "transform_reduce"};
  for (std::size_t i = 1; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (!kAlgos.count(t.text) || f.tokens[i - 1].text != "std" ||
        t.next != '(') {
      continue;
    }
    findings.push_back(
        {f.rel, t.line, "raw-loop-reduction",
         "'std::" + t.text +
             "' folds in iterator order outside the kernel layer — use "
             "stats::kernels::sum / centered_products (or keep the "
             "reduction in src/stats where the lane order is pinned)"});
  }
}

}  // namespace

void run_reduction_pass(const Repo& repo, std::vector<Finding>& findings) {
  static const std::set<std::string> kScopedModules = {"core", "query"};
  for (const auto& f : repo.files) {
    if (!f.in_src() || !kScopedModules.count(f.module)) continue;
    check_range_for(f, findings);
    check_numeric_algorithms(f, findings);
  }
}

}  // namespace gpuvar::analyzer
