// gpuvar-analyzer — the repo's multi-pass static analysis tool.
//
// Grown from PR 1's gpuvar_lint: the same token-level scanning core now
// feeds twelve passes (style, layering, thread-safety, determinism,
// observability, include hygiene, dead code, lock order, hot path,
// lifetime, analysis signature, reduction; see passes.hpp for the rule
// catalogue) through a parallel scan driver (driver.hpp), with inline
// suppressions, JSON output, a DOT dump of the module layering graph, a
// --fix mode that rewrites include blocks in place, and a findings
// ratchet (--baseline, baseline.hpp) that only ever shrinks.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "baseline.hpp"
#include "common/numfmt.hpp"
#include "driver.hpp"
#include "passes.hpp"
#include "core.hpp"
#include "fix.hpp"
#include "index.hpp"

namespace gpuvar::analyzer {

namespace {

std::vector<std::string> split_rules(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    if (!rule.empty()) out.push_back(rule);
  }
  return out;
}

/// Fixture contract: the multiset of fired rules equals the expected
/// list — every expected rule fires exactly as often as listed, and no
/// unexpected rule fires at all (a decoy tripping a rule, or literal
/// stripping regressing, fails the self-test).
int check_expectations(const std::vector<Finding>& findings,
                       const std::vector<std::string>& expected) {
  print_findings(findings, std::cout);
  std::map<std::string, int> want, got;
  for (const auto& r : expected) ++want[r];
  for (const auto& fd : findings) ++got[fd.rule];
  int failures = 0;
  for (const auto& [rule, n] : want) {
    if (got[rule] != n) {
      std::cerr << "expected rule '" << rule << "' to fire " << n
                << "x, fired " << got[rule] << "x\n";
      ++failures;
    }
  }
  for (const auto& [rule, n] : got) {
    if (!want.count(rule)) {
      std::cerr << "unexpected rule fired " << n << "x: '" << rule
                << "' (decoy tripped?)\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "fixture OK: " << findings.size()
              << " finding(s), all expected\n";
  }
  return failures == 0 ? 0 : 1;
}

int run_fixture(const std::string& file, const std::string& expect) {
  // Lint the fixture as a file of src/core: every src rule applies,
  // including the module-scoped ones (float-sort-key).
  const std::string rel =
      "src/core/" + std::filesystem::path(file).filename().string();
  Tree tree;
  tree.root = std::filesystem::path(file).parent_path();
  tree.files.emplace_back();
  if (!scan_file(file, rel, tree.files.back())) {
    std::cerr << "cannot read fixture: " << file << "\n";
    return 2;
  }
  resolve_includes(tree);
  AnalysisResult result = analyze_tree(tree);
  // dead-symbol is a cross-TU property: on a one-file tree every
  // declaration is vacuously unreferenced, so the rule is dropped here
  // instead of polluting every single-file fixture's expectations.
  std::erase_if(result.findings,
                [](const Finding& fd) { return fd.rule == "dead-symbol"; });
  return check_expectations(result.findings, split_rules(expect));
}

int run_fixture_tree(const std::string& dir, const std::string& expect) {
  const Tree tree = scan_tree(dir, 1);
  if (tree.files.empty()) {
    std::cerr << "no source files under fixture tree: " << dir << "\n";
    return 2;
  }
  const AnalysisResult result = analyze_tree(tree);
  return check_expectations(result.findings, split_rules(expect));
}

struct TreeOptions {
  std::string root;
  std::string json_file, dot_file;
  std::string baseline_file;
  std::size_t threads = 0;  ///< scan workers; 0 = one per hardware thread
  bool fix = false;
  bool dry_run = false;
  bool stats = false;
  bool baseline_write = false;
};

/// --list-rules: the registry as text, or as the markdown table that
/// docs/rules.md is generated from (CI cmp's the two).
int list_rules(bool markdown) {
  if (markdown) {
    std::cout << "# gpuvar-analyzer rules\n\n"
                 "<!-- Generated by `gpuvar-analyzer --list-rules "
                 "--markdown`. Do not edit by hand: CI checks this "
                 "file matches the binary's registry. -->\n\n"
                 "| rule | pass | level | suppressible | description "
                 "|\n|---|---|---|---|---|\n";
    for (const auto& r : rules()) {
      std::cout << "| `" << r.id << "` | " << r.pass << " | error | "
                << (r.strict ? "no" : "yes") << " | " << r.description
                << " |\n";
    }
    std::cout << "\nSuppression: `// gpuvar-lint: allow(wall-clock)` (or "
                 "`allow(wall-clock,locale-format)`) on the finding line "
                 "or the line above. Strict rules ignore suppressions; a "
                 "suppression naming an unknown rule is itself a "
                 "finding (`unknown-rule`).\n";
    return 0;
  }
  std::size_t width = 0;
  for (const auto& r : rules()) width = std::max(width, r.id.size());
  for (const auto& r : rules()) {
    std::cout << r.id << std::string(width - r.id.size(), ' ') << "  "
              << r.pass << std::string(12 - std::min<std::size_t>(
                                                11, r.pass.size()),
                                       ' ')
              << "error  " << (r.strict ? "strict        " : "suppressible  ")
              << r.description << "\n";
  }
  return 0;
}

int run_tree(const TreeOptions& opts) {
  const Tree tree = scan_tree(opts.root, opts.threads);
  if (tree.files.empty()) {
    std::cerr << "gpuvar-analyzer: no source files under '" << opts.root
              << "' — wrong repo root?\n";
    return 2;
  }
  AnalysisResult result = analyze_tree(tree);

  if (opts.stats) {
    std::cout << "stats: files=" << tree.files.size()
              << " open_edges=" << result.open_edges << "\n";
  }
  if (!opts.dot_file.empty()) {
    std::ofstream out(opts.dot_file);
    if (!out) {
      std::cerr << "cannot write " << opts.dot_file << "\n";
      return 2;
    }
    write_layering_dot(tree, out);
  }
  if (!opts.json_file.empty()) {
    std::ofstream out(opts.json_file);
    if (!out) {
      std::cerr << "cannot write " << opts.json_file << "\n";
      return 2;
    }
    write_json(result.findings, tree.files.size(), out);
  }

  if (opts.fix) {
    const FixOutcome outcome =
        apply_fixes(opts.root, result.edits, opts.dry_run);
    if (opts.dry_run) {
      std::cout << outcome.diff;
    }
    std::cerr << "fix: " << outcome.files_changed << " file(s), "
              << outcome.deleted << " include(s) deleted, "
              << outcome.inserted << " inserted, "
              << outcome.forward_declared << " forward-declared"
              << (opts.dry_run ? " (dry run, nothing written)" : "")
              << "\n";
    for (const auto& e : outcome.errors) std::cerr << "fix: " << e << "\n";
    // Exit code reflects what --fix could NOT fix: findings with no
    // mechanical edit still need a human.
    std::set<std::tuple<std::string, int, std::string>> fixed;
    for (const auto& e : result.edits) fixed.insert({e.file, e.line, e.rule});
    std::vector<Finding> remaining;
    for (auto& fd : result.findings) {
      if (!fixed.count({fd.file, fd.line, fd.rule})) {
        remaining.push_back(std::move(fd));
      }
    }
    print_findings(remaining, std::cerr);
    if (!outcome.errors.empty()) return 2;
    return remaining.empty() ? 0 : 1;
  }

  if (!opts.baseline_file.empty()) {
    if (opts.baseline_write) {
      const Baseline current = baseline_from_findings(result.findings);
      if (!write_baseline(opts.baseline_file, current)) {
        std::cerr << "cannot write " << opts.baseline_file << "\n";
        return 2;
      }
      std::cout << "baseline: recorded " << current.entries.size()
                << " fingerprint(s) (" << result.findings.size()
                << " finding(s)) to " << opts.baseline_file << "\n";
      return 0;
    }
    Baseline base;
    if (!load_baseline(opts.baseline_file, base)) {
      std::cerr << "malformed baseline: " << opts.baseline_file << "\n";
      return 2;
    }
    const RatchetResult r = ratchet(base, result.findings);
    if (!r.grown.empty()) {
      print_findings(result.findings, std::cerr);
      std::cerr << "baseline: " << r.grown.size()
                << " fingerprint(s) grew beyond " << opts.baseline_file
                << ":\n";
      for (const auto& e : r.grown) {
        std::cerr << "  +" << e.count << " [" << e.rule << "] " << e.file
                  << (e.symbol.empty() ? "" : " @ " + e.symbol) << "\n";
      }
      std::cerr << "fix the new finding(s); the baseline only shrinks\n";
      return 1;
    }
    if (r.shrunk) {
      if (!write_baseline(opts.baseline_file, r.current)) {
        std::cerr << "cannot rewrite " << opts.baseline_file << "\n";
        return 2;
      }
      std::cerr << "baseline: shrunk to " << r.current.entries.size()
                << " fingerprint(s)\n";
    }
    if (!result.findings.empty()) {
      std::cout << "gpuvar-analyzer: " << tree.files.size()
                << " files, no new findings (" << result.findings.size()
                << " baselined, " << pass_names().size() << " passes)\n";
      return 0;
    }
    // Fall through: an empty baseline over a clean tree is just clean.
  }

  print_findings(result.findings, std::cerr);
  if (!result.findings.empty()) {
    std::cerr << result.findings.size() << " finding(s) in "
              << tree.files.size() << " files\n";
    return 1;
  }
  std::cout << "gpuvar-analyzer: " << tree.files.size() << " files clean ("
            << pass_names().size() << " passes)\n";
  return 0;
}

int usage(bool full) {
  std::ostream& out = full ? std::cout : std::cerr;
  out << "usage:\n"
         "  gpuvar-analyzer <repo_root> [options]\n"
         "  gpuvar-analyzer --fixture FILE --expect rule,rule,...\n"
         "  gpuvar-analyzer --fixture-tree DIR --expect rule,rule,...\n"
         "  gpuvar-analyzer --list-rules [--markdown]\n"
         "  gpuvar-analyzer --help\n";
  if (full) {
    out << "\n"
           "tree options:\n"
           "  --json FILE    write findings as JSON\n"
           "  --dot FILE     write the module layering graph as DOT\n"
           "  --threads N    scan worker threads (0 = hardware)\n"
           "  --fix          rewrite include blocks in place: delete\n"
           "                 unused includes, insert missing direct\n"
           "                 includes (sorted), replace forward-\n"
           "                 declarable includes with declarations\n"
           "  --dry-run      with --fix: print a unified diff, write\n"
           "                 nothing\n"
           "  --stats        print file and open-call-edge counts\n"
           "  --baseline FILE  findings ratchet: fingerprints (rule +\n"
           "                 file + symbol) not in FILE fail the run;\n"
           "                 fingerprints that disappeared auto-shrink\n"
           "                 FILE. Absent FILE = empty baseline.\n"
           "                 Incompatible with --fix.\n"
           "  --baseline-write  with --baseline: record the current\n"
           "                 findings as the new baseline and exit 0\n"
           "\n"
           "exit codes:\n"
           "  0  clean (with --fix: every finding had a mechanical fix)\n"
           "  1  findings (with --fix: findings remain that need a\n"
           "     human)\n"
           "  2  bad usage, unreadable/unwritable file, or an empty\n"
           "     tree (a typo'd CI path must not read as clean)\n"
           "\n"
           "passes: ";
    for (std::size_t i = 0; i < pass_names().size(); ++i) {
      out << (i ? ", " : "") << pass_names()[i];
    }
    out << "\nsuppression: // gpuvar-lint: allow(bare-assert) or\n"
           "  allow(bare-assert,wall-clock) on the finding line or the\n"
           "  line above; unknown names are themselves findings\n";
  }
  return full ? 0 : 2;
}

}  // namespace

}  // namespace gpuvar::analyzer

int main(int argc, char** argv) {
  using namespace gpuvar::analyzer;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--help") return usage(true);
  if (!args.empty() && args[0] == "--list-rules") {
    if (args.size() == 1) return list_rules(false);
    if (args.size() == 2 && args[1] == "--markdown") return list_rules(true);
    return usage(false);
  }
  if (args.size() == 4 && args[0] == "--fixture" && args[2] == "--expect") {
    return run_fixture(args[1], args[3]);
  }
  if (args.size() == 4 && args[0] == "--fixture-tree" &&
      args[2] == "--expect") {
    return run_fixture_tree(args[1], args[3]);
  }
  if (args.empty() || args[0].rfind("--", 0) == 0) return usage(false);

  TreeOptions opts;
  opts.root = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--json" && has_value) {
      opts.json_file = args[++i];
    } else if (a == "--dot" && has_value) {
      opts.dot_file = args[++i];
    } else if (a == "--threads" && has_value) {
      long long n = 0;
      if (!gpuvar::parse_int(args[++i], n) || n < 0) return usage(false);
      opts.threads = static_cast<std::size_t>(n);
    } else if (a == "--baseline" && has_value) {
      opts.baseline_file = args[++i];
    } else if (a == "--baseline-write") {
      opts.baseline_write = true;
    } else if (a == "--fix") {
      opts.fix = true;
    } else if (a == "--dry-run") {
      opts.dry_run = true;
    } else if (a == "--stats") {
      opts.stats = true;
    } else {
      return usage(false);
    }
  }
  if (opts.dry_run && !opts.fix) return usage(false);
  if (opts.baseline_write && opts.baseline_file.empty()) return usage(false);
  // --fix rewrites the tree under the ratchet's feet; force one mode.
  if (opts.fix && !opts.baseline_file.empty()) return usage(false);
  return run_tree(opts);
}
