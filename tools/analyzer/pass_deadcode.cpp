// Dead-code pass: a namespace-scope symbol declared in a src/ header
// that nothing in the tree uses is dead weight — it costs compile time
// on every rebuild, bloats the umbrella's export surface, and rots
// silently because nothing exercises it.
//
// "Used" is token-level, from three sources (an over-approximation,
// which is the safe direction for a deletion advisory):
//   1. any identifier token with the symbol's name in a file other
//      than the header and its associated .cpp / _test.cpp;
//   2. the header itself mentioning the name more often than it
//      declares it — macro bodies, alias targets, and inline
//      implementations are uses even though the declaration is not;
//   3. the associated .cpp mentioning the name, where for types,
//      aliases, enums, macros and variables any occurrence is a use
//      (a variable is only indexed with its `=` initializer, so the
//      header holds its definition), while for functions the
//      out-of-line definition accounts for one occurrence and only
//      additional ones count.
// Enums additionally stay alive if any member is referenced anywhere.
// Symbols meant for downstream users rather than this tree go on the
// public-surface allowlist below with a justification, or carry an
// inline `gpuvar-lint: allow(dead-symbol)`.
//
// test-only-symbol runs the same liveness test a second time with the
// files under tests/ skipped: a symbol alive only through tests/ is API
// no program, bench, example or tool reads. A reference implementation
// that tests compare the program's results against goes on the
// test-oracle allowlist with a justification instead.
#include <algorithm>
#include <set>

#include "passes.hpp"
#include "core.hpp"
#include "index.hpp"

namespace gpuvar::analyzer {

namespace {

/// Symbols that are intentionally unreferenced inside this repository
/// because they exist for downstream users of the public headers.
/// Every entry needs a justification; an entry whose justification no
/// longer holds is itself dead code.
const std::set<std::string>& public_surface_allowlist() {
  static const std::set<std::string> kAllow = {
      // thread_annotations.hpp mirrors the full clang -Wthread-safety
      // vocabulary; annotating a new guarded member must never require
      // re-adding a macro, so the currently-unapplied ones stay.
      "GPUVAR_EXCLUDES",
      "GPUVAR_NO_THREAD_SAFETY_ANALYSIS",
      "GPUVAR_PT_GUARDED_BY",
      "GPUVAR_REQUIRES",
      "GPUVAR_RETURN_CAPABILITY",
  };
  return kAllow;
}

/// Reference implementations that tests compare program results
/// against; nothing outside tests/ calls them, by design.
const std::set<std::string>& test_oracle_allowlist() {
  static const std::set<std::string> kAllow = {
      // Correlate.ReportIsBitEqualToCorrelatePair: analyze_correlation's
      // rank-once matrix must be bit-equal to the per-pair function.
      "correlate_pair",
      // UserImpact.TableRowsAreBitEqualToJobImpact: the sort-once table
      // must equal it, also at widths (6, 9) the table cannot produce.
      "job_impact",
  };
  return kAllow;
}

/// Occurrence count of `name` in `f` (0 when absent).
int count_in(const FileSummary& f, const std::string& name) {
  const auto it = std::lower_bound(f.refs.begin(), f.refs.end(), name);
  if (it == f.refs.end() || *it != name) return 0;
  return f.ref_counts[static_cast<std::size_t>(it - f.refs.begin())];
}

}  // namespace

void run_deadcode_pass(const Tree& tree, const SymbolIndex& index,
                       std::vector<Finding>& findings) {
  (void)index;
  for (const auto& header : tree.files) {
    if (!header.in_src() || !header.header) continue;

    // Declaration sites per name: a name that appears in the header no
    // more often than it is declared there is never self-kept-alive.
    std::map<std::string, int> declared_sites;
    for (const auto& s : header.declared) ++declared_sites[s.name];

    // Member lists per enum in this header, for the liveness check.
    std::map<std::string, std::vector<const Symbol*>> enum_members;
    for (const auto& s : header.declared) {
      if (s.kind == 'g') enum_members[s.parent].push_back(&s);
    }

    // Liveness of `sym`: self-use in the header, or a use in another
    // file. With `skip_tests`, files under tests/ are not users.
    const auto alive = [&](const Symbol& sym, bool skip_tests) {
      if (count_in(header, sym.name) > declared_sites[sym.name]) return true;
      const bool definable_out_of_line = sym.kind == 'f';
      for (const auto& other : tree.files) {
        if (other.rel == header.rel) continue;
        if (skip_tests && other.top == "tests") continue;
        if (is_associated_header(other.rel, header.rel)) {
          // For functions one occurrence is the out-of-line definition,
          // not a use; for everything else any mention is.
          const int uses = count_in(other, sym.name);
          if (definable_out_of_line ? uses > 1 : uses > 0) return true;
          continue;
        }
        if (count_in(other, sym.name) > 0) return true;
        if (sym.kind == 'e') {
          const auto mit = enum_members.find(sym.name);
          if (mit == enum_members.end()) continue;
          for (const Symbol* m : mit->second) {
            if (count_in(other, m->name) > 0) return true;
          }
        }
      }
      return false;
    };

    std::set<std::string> reported;
    for (const auto& s : header.declared) {
      // Enum members ride with their enum; forward declarations carry
      // no definition to delete.
      if (s.kind == 'g' || s.kind == 'd') continue;
      if (public_surface_allowlist().count(s.name)) continue;
      if (reported.count(s.name)) continue;

      if (!alive(s, false)) {
        reported.insert(s.name);
        findings.push_back(
            {header.rel, s.line, "dead-symbol",
             "'" + s.name +
                 "' is declared here but never used — not by another "
                 "file, not by this header beyond the declaration; "
                 "delete it, or if it exists for downstream users add "
                 "it to public_surface_allowlist() in "
                 "tools/analyzer/pass_deadcode.cpp with a "
                 "justification"});
        continue;
      }
      if (test_oracle_allowlist().count(s.name) || alive(s, true)) continue;
      reported.insert(s.name);
      findings.push_back(
          {header.rel, s.line, "test-only-symbol",
           "'" + s.name +
               "' is used only by tests/ — no program, bench, example "
               "or tool reads it; delete it with its tests, or if "
               "tests compare against it as a reference add it to "
               "test_oracle_allowlist() in "
               "tools/analyzer/pass_deadcode.cpp with a justification"});
    }
  }
}

}  // namespace gpuvar::analyzer
