// Cross-TU symbol index: per-file declared/referenced symbol tables
// extracted from the token scanner, merged tree-wide.
//
// The scanner stays deliberately AST-free (see core.hpp): declarations
// are recognized from the token stream at namespace scope only — class/
// struct/enum definitions, `using` aliases, free functions, namespace-
// scope constants, and `#define` macros. That set is precise enough for
// the two passes built on top of it:
//
//   * include-hygiene — "file A uses header H" means A's identifier
//     tokens intersect the names H provides (directly, or re-exported
//     through `// IWYU pragma: export` includes, the gpuvar.hpp
//     umbrella pattern). Unused direct includes, symbols reached only
//     transitively, and includes needed only for a type used by
//     pointer/reference all fall out of that one relation.
//   * dead-code — a namespace-scope symbol declared in a src/ header
//     that no other TU references (its own defining .cpp excepted) is
//     dead weight on every rebuild.
//
// Over-collection is safe where it is conservative (an extra provided
// name can only keep an include alive), and the scanner refuses to
// guess where a wrong guess would delete working code: headers that
// declare operators (ADL, user-defined literals) are opaque to
// unused-include, and only plain class/struct types qualify for
// forward-declaration advice.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core.hpp"
#include "flow.hpp"

namespace gpuvar::analyzer {

/// One namespace-scope declaration found in a header.
///
/// Kinds: 's' struct, 'c' class, 'T' template class/struct, 'e' enum,
/// 'g' enum member (parent = the enum's name), 'a' using-alias,
/// 'f' function, 'v' namespace-scope variable/constant, 'm' macro,
/// 'd' forward declaration.
struct Symbol {
  std::string name;
  std::string ns;      ///< enclosing namespace path, e.g. "gpuvar::stats"
  std::string parent;  ///< for 'g': the enum this member belongs to
  char kind = 'f';
  int line = 0;
};

/// One quoted #include directive with its IWYU pragma marks.
struct IncludeDirective {
  int line = 0;
  std::string target;    ///< path between the quotes, as written
  bool keep = false;     ///< line carries `IWYU pragma: keep`
  bool exported = false; ///< line carries `IWYU pragma: export`
  /// Repo-relative path of the included file when it is part of this
  /// tree, "" otherwise. Filled by resolve_includes() once every file
  /// is scanned: resolution depends on which files exist.
  std::string resolved;
};

/// Everything the tree-level passes need from one file. SourceFile
/// carries the heavyweight token stream; a FileSummary outlives it.
struct FileSummary {
  std::string rel;     ///< root-relative, '/'-separated
  std::string top;     ///< first path component (src, tests, ...)
  std::string module;  ///< src layer dir, "" elsewhere
  bool header = false;
  std::vector<IncludeDirective> includes;
  /// line -> rules suppressed there by a gpuvar-lint allow comment.
  std::map<int, std::set<std::string>> allows;
  /// Namespace-scope declarations (headers only; empty for .cpp files).
  std::vector<Symbol> declared;
  /// Sorted unique identifier tokens appearing anywhere in the file.
  std::vector<std::string> refs;
  /// Occurrence count for refs[i] (member-access tokens excluded), so
  /// the dead-code pass can tell a lone declaration (count == declared
  /// sites) from a name its own header actually uses.
  std::vector<int> ref_counts;
  /// Subset of refs whose every occurrence is followed by '&' or '*'
  /// (declarator-only use: a candidate for a forward declaration).
  std::vector<std::string> ptr_ref_only;
  /// True when the file declares any `operator` at namespace scope
  /// (ADL operators, user-defined literals): its consumers can use it
  /// without naming any symbol, so unused-include must not fire.
  bool declares_operator = false;
  /// Findings from the file-local passes, before suppressions.
  std::vector<Finding> local_findings;
  /// Function definitions with flow events (scan_flow); input to the
  /// tree-level flow passes.
  std::vector<FlowFunction> functions;

  bool in_src() const { return top == "src"; }
};

/// The scanned tree: one summary per file, sorted by rel path.
struct Tree {
  std::filesystem::path root;
  std::vector<FileSummary> files;
};

/// Extracts declared symbols, refs, and ptr/ref-only names from one
/// preprocessed file into `out` (which must already carry rel/top/
/// module/header from load_source_file).
void scan_symbols(const SourceFile& f, FileSummary& out);

/// Fills IncludeDirective::resolved for every file: targets with a
/// directory component resolve against src/, bare names against the
/// including file's directory and then src/ (the gpuvar.hpp umbrella).
void resolve_includes(Tree& tree);

/// True when `inc` is `file`'s associated header (same directory, same
/// stem: gpu/dvfs.cpp <-> gpu/dvfs.hpp). Associated headers are always
/// kept: the .cpp defines what they declare.
bool is_associated_header(const std::string& file_rel,
                          const std::string& include_rel);

/// The tree-wide symbol index the include-hygiene and dead-code passes
/// query. Build once per run after resolve_includes().
struct SymbolIndex {
  /// header rel -> names it declares directly (all kinds, enum members
  /// and forward declarations included).
  std::map<std::string, std::set<std::string>> provides;
  /// header rel -> provides plus everything re-exported through
  /// `IWYU pragma: export` includes, transitively.
  std::map<std::string, std::set<std::string>> provides_exported;
  /// header rel -> true when the export closure declares any operator.
  std::map<std::string, bool> opaque;
  /// header rel -> every repo file reachable through its includes
  /// (transitively, itself included).
  std::map<std::string, std::set<std::string>> reachable;
  /// symbol name -> headers declaring it.
  std::map<std::string, std::set<std::string>> declaring_headers;
  /// rel -> summary, for passes that need to look a file up.
  std::map<std::string, const FileSummary*> by_rel;
};

SymbolIndex build_index(const Tree& tree);

}  // namespace gpuvar::analyzer
