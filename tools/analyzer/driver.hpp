// The analyzer's scan driver: parallel per-file scanning on
// gpuvar::ThreadPool and the pass/suppression orchestration shared by
// the tree and fixture entry points.
//
// Scanning is embarrassingly parallel and deterministic: files are
// enumerated in sorted order, each file's scan (load, strip, tokenize,
// file-local passes, symbol tables) writes into its own slot, and every
// tree-level pass runs on the ordered summaries — so findings are
// byte-identical at any thread count. Every run is a cold scan of the
// whole tree.
#pragma once

#include "fix.hpp"
#include "index.hpp"
#include "core.hpp"

namespace gpuvar::analyzer {

/// Names of every pass, in execution order (file-local passes first).
const std::vector<std::string>& pass_names();

/// Scans one file: load + file-local passes + symbol tables. Returns
/// false when the file can't be read.
bool scan_file(const std::filesystem::path& path, const std::string& rel,
               FileSummary& out);

/// Scans root/{src,tools,bench,examples,tests} for .hpp/.cpp files
/// (skipping fixtures/ directories) on `threads` workers (0 = one per
/// hardware thread). Include targets are resolved before returning.
Tree scan_tree(const std::filesystem::path& root, std::size_t threads);

/// Findings for allow() entries naming rules the analyzer doesn't have.
void check_suppression_names(const FileSummary& file,
                             std::vector<Finding>& findings);

/// Drops findings covered by an allow() on the same or preceding line.
/// Strict rules (core.hpp strict_rule) are never suppressible.
std::vector<Finding> apply_suppressions(const Tree& tree,
                                        std::vector<Finding> findings);

struct AnalysisResult {
  std::vector<Finding> findings;  ///< post-suppression, canonical order
  std::vector<FixEdit> edits;     ///< edits whose findings survived
  /// Call-graph edges that resolved to no known definition
  /// (sound-by-admission: counted, never traversed). Surfaced by
  /// --stats so a resolution regression is visible.
  std::size_t open_edges = 0;
};

/// Runs every pass over the scanned tree: collects the scanned
/// file-local findings, runs the tree-level passes (layering, include
/// hygiene, dead code), applies suppressions, and sorts.
AnalysisResult analyze_tree(const Tree& tree);

}  // namespace gpuvar::analyzer
