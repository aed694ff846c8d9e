// Lightweight flow-aware analysis on top of the token scanner.
//
// scan_flow() walks one preprocessed file and extracts, per function
// definition, the events the flow passes need: call sites (with the
// lock set held at each), lock acquisitions (gpuvar::MutexLock),
// loop nesting, allocation / IO / string-formatting trigger sites,
// and the span/string_view lifetime facts the dangling-span rule
// consumes. Like the DeclScanner it is deliberately AST-free: every
// recognized shape is a token pattern this codebase actually writes,
// and anything the scanner cannot classify is simply not recorded.
//
// build_call_graph() then stitches the per-file FlowFunction lists
// into a cross-TU call graph. Resolution is name-based and
// sound-by-admission:
//
//   1. a callee naming a local lambda / helper defined in the same
//      file resolves there (innermost first);
//   2. otherwise a qualifier-suffix match against every function in
//      the tree resolves iff it is unique;
//   3. otherwise the edge stays OPEN: it is counted (--stats) but never traversed, so the passes only ever reason
//      about code they can actually see. A finding can be missed
//      through an open edge; one can never be fabricated by it.
//
// The lockorder and hotpath passes run on the graph; the lifetime
// pass is intraprocedural and runs during the per-file scan like any
// file-local pass.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace gpuvar::analyzer {

struct SourceFile;
struct Tree;

/// One call site inside a function body.
struct FlowCall {
  std::string callee;  ///< as written, "::"-joined ("stats::median")
  int line = 0;
  bool in_loop = false;  ///< lexically inside a loop of this function
  bool member = false;   ///< object call: `x.f()` / `x->f()`
  /// Canonical ids of the locks held when the call executes.
  std::vector<std::string> locks_held;
};

/// One gpuvar::MutexLock acquisition site.
struct FlowLock {
  std::string lock;  ///< canonical id, e.g. "Registry::mu_"
  int line = 0;
  bool in_loop = false;
  /// Locks already held when this one is acquired — the per-function
  /// source of pairwise acquisition order.
  std::vector<std::string> held_before;
};

/// An allocation / IO / string-formatting trigger site.
struct FlowSite {
  std::string what;  ///< the trigger token, for messages
  int line = 0;
  bool in_loop = false;
};

/// A `return <expr>` in a view-returning function where <expr> is
/// known to die with the call: kind 'l' = local owner, 'p' = by-value
/// owner parameter, 't' = temporary (substr / to_string / owner ctor).
struct FlowViewReturn {
  int line = 0;
  char kind = 'l';
  std::string name;  ///< the local/param, or the temporary-making token
};

/// A view parameter stored into a member (`name_ = p;`, `x->f = p;`,
/// ctor init `name_(p)`) — the member outlives the argument's backing
/// storage unless the caller guarantees otherwise.
struct FlowViewStore {
  int line = 0;
  std::string member;
  std::string param;
};

/// Everything scan_flow() learns about one function definition
/// (free function, member function defined in-class or out-of-line,
/// or a named local lambda, which is modeled as a nested function).
struct FlowFunction {
  std::string name;  ///< qualified: "RecordFrame::intern",
                     ///< "per_gpu_medians::median_of" for lambdas
  std::string bare;  ///< last "::" component
  int line = 0;
  bool hot = false;       ///< GPUVAR_HOT on the definition
  bool is_lambda = false; ///< named local lambda callable
  std::vector<FlowCall> calls;
  std::vector<FlowLock> locks;
  std::vector<FlowSite> allocs;  ///< `new`, owner-type local construction
  std::vector<FlowSite> io;      ///< stream/stdio tokens
  std::vector<FlowSite> fmt;     ///< to_string/snprintf/ostringstream/...
  // Lifetime facts (consumed at scan time by the lifetime pass).
  std::vector<FlowViewReturn> view_returns;
  std::vector<FlowViewStore> view_stores;
};

/// Extracts every function definition (with events) from one file.
std::vector<FlowFunction> scan_flow(const SourceFile& f);

/// The cross-TU call graph over every FlowFunction in the tree.
struct FlowGraph {
  struct Node {
    const FlowFunction* fn = nullptr;
    std::string file;  ///< rel path of the defining file
  };
  /// Sorted by (file, function order within file) — deterministic.
  std::vector<Node> nodes;
  /// node index -> per-call resolved callee node (-1 = open edge),
  /// parallel to nodes[i].fn->calls.
  std::vector<std::vector<int>> callee;
  std::size_t open_edges = 0;  ///< calls that resolved to no node

  /// Transitive effect bits per node, closed over resolved edges.
  struct Effects {
    bool allocates = false;
    bool waits = false;    ///< reaches submit/wait_idle/parallel_for
    bool formats = false;
  };
  std::vector<Effects> effects;
  /// Locks transitively acquired by each node (canonical ids).
  std::vector<std::vector<std::string>> acquired;
};

FlowGraph build_call_graph(const Tree& tree);

}  // namespace gpuvar::analyzer
