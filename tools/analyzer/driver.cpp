#include "driver.hpp"

#include <algorithm>
#include <tuple>

#include "common/thread_pool.hpp"
#include "flow.hpp"
#include "passes.hpp"
#include "core.hpp"
#include "fix.hpp"
#include "index.hpp"

namespace gpuvar::analyzer {

namespace fs = std::filesystem;

namespace {

bool is_source_name(const fs::path& p) {
  return p.extension() == ".hpp" || p.extension() == ".cpp";
}

struct TreeItem {
  fs::path path;
  std::string rel;
};

std::vector<TreeItem> enumerate(const fs::path& root) {
  std::vector<TreeItem> items;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    std::vector<fs::path> paths;
    auto it = fs::recursive_directory_iterator(base);
    for (const auto& entry : it) {
      if (entry.is_directory() && entry.path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file() && is_source_name(entry.path())) {
        paths.push_back(entry.path());
      }
    }
    // Directory iteration order is filesystem-dependent; sort so the
    // analyzer's own output is deterministic.
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) {
      items.push_back({p, fs::relative(p, root).generic_string()});
    }
  }
  return items;
}

/// Parses `IWYU pragma:` marks off each include's raw line.
void mark_iwyu_pragmas(const SourceFile& f, FileSummary& out) {
  std::vector<std::string> lines;
  {
    std::size_t pos = 0;
    while (pos <= f.raw.size()) {
      const std::size_t eol = f.raw.find('\n', pos);
      lines.push_back(f.raw.substr(
          pos, (eol == std::string::npos ? f.raw.size() : eol) - pos));
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
  }
  for (auto& inc : out.includes) {
    const std::size_t i = static_cast<std::size_t>(inc.line - 1);
    if (i >= lines.size()) continue;
    if (lines[i].find("IWYU pragma: keep") != std::string::npos) {
      inc.keep = true;
    }
    if (lines[i].find("IWYU pragma: export") != std::string::npos) {
      inc.exported = true;
    }
  }
}

}  // namespace

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> kNames = {
      "style",    "layering", "thread",   "determinism",
      "obs",      "include",  "deadcode", "lockorder",
      "hotpath",  "lifetime", "analysis", "reduction"};
  return kNames;
}

bool scan_file(const fs::path& path, const std::string& rel,
               FileSummary& out) {
  SourceFile f;
  if (!load_source_file(path, rel, f)) return false;

  out = FileSummary{};
  out.rel = f.rel;
  out.top = f.top;
  out.module = f.module;
  out.header = f.header;
  for (const auto& [line, target] : f.includes) {
    IncludeDirective inc;
    inc.line = line;
    inc.target = target;
    out.includes.push_back(std::move(inc));
  }
  out.allows = f.allows;
  mark_iwyu_pragmas(f, out);
  scan_symbols(f, out);
  out.functions = scan_flow(f);

  // File-local passes (everything except the tree passes is a pure
  // function of one file — that is what lets files scan in parallel).
  // The lifetime pass is file-local too: dangling-span needs only one
  // function body at a time.
  Repo one;
  one.root = path.parent_path();
  one.files.push_back(std::move(f));
  run_style_pass(one, out.local_findings);
  run_thread_pass(one, out.local_findings);
  run_determinism_pass(one, out.local_findings);
  run_obs_pass(one, out.local_findings);
  run_lifetime_pass(one, out.local_findings);
  run_analysis_pass(one, out.local_findings);
  run_reduction_pass(one, out.local_findings);
  return true;
}

Tree scan_tree(const fs::path& root, std::size_t threads) {
  const std::vector<TreeItem> items = enumerate(root);

  std::vector<FileSummary> summaries(items.size());
  std::vector<char> ok(items.size(), 0);
  if (!items.empty()) {
    ThreadPool pool(threads);
    pool.parallel_for(items.size(), [&](std::size_t i) {
      ok[i] = scan_file(items[i].path, items[i].rel, summaries[i]) ? 1 : 0;
    });
  }

  // Drop unreadable files, preserving order.
  Tree tree;
  tree.root = root;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (ok[i]) tree.files.push_back(std::move(summaries[i]));
  }
  resolve_includes(tree);
  return tree;
}

void check_suppression_names(const FileSummary& file,
                             std::vector<Finding>& findings) {
  for (const auto& [line, rules] : file.allows) {
    for (const auto& rule : rules) {
      if (!known_rules().count(rule)) {
        findings.push_back({file.rel, line, "unknown-rule",
                            "suppression names unknown rule '" + rule +
                                "' (run --list-rules for the registry); "
                                "a typo here would silently disable "
                                "nothing"});
      }
    }
  }
}

std::vector<Finding> apply_suppressions(const Tree& tree,
                                        std::vector<Finding> findings) {
  std::map<std::string, const FileSummary*> by_rel;
  for (const auto& f : tree.files) by_rel[f.rel] = &f;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& fd : findings) {
    bool suppressed = false;
    if (!strict_rule(fd.rule)) {
      const auto it = by_rel.find(fd.file);
      if (it != by_rel.end()) {
        const auto& allows = it->second->allows;
        for (int line : {fd.line, fd.line - 1}) {
          const auto a = allows.find(line);
          if (a != allows.end() && a->second.count(fd.rule)) {
            suppressed = true;
            break;
          }
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(fd));
  }
  return kept;
}

AnalysisResult analyze_tree(const Tree& tree) {
  AnalysisResult result;
  std::vector<Finding> findings;
  for (const auto& f : tree.files) {
    findings.insert(findings.end(), f.local_findings.begin(),
                    f.local_findings.end());
  }

  run_layering_pass(tree, findings);
  const SymbolIndex idx = build_index(tree);
  std::vector<FixEdit> edits;
  run_include_pass(tree, idx, findings, &edits);
  run_deadcode_pass(tree, idx, findings);
  const FlowGraph graph = build_call_graph(tree);
  result.open_edges = graph.open_edges;
  run_lockorder_pass(tree, graph, findings);
  run_hotpath_pass(tree, graph, findings);
  for (const auto& f : tree.files) check_suppression_names(f, findings);

  findings = apply_suppressions(tree, std::move(findings));
  sort_findings(findings);

  // Keep only edits whose finding survived suppression.
  std::set<std::tuple<std::string, int, std::string>> alive;
  for (const auto& fd : findings) alive.insert({fd.file, fd.line, fd.rule});
  for (auto& e : edits) {
    if (alive.count({e.file, e.line, e.rule})) {
      result.edits.push_back(std::move(e));
    }
  }
  result.findings = std::move(findings);
  return result;
}

}  // namespace gpuvar::analyzer
