// The analyzer's pluggable passes, in two tiers.
//
// File-local passes (style, thread, determinism, obs, lifetime,
// analysis, reduction) are pure functions of one file: the driver runs
// them on a single-file Repo during the parallel scan and keeps their
// findings with the file's summary.
//
// Tree passes (layering, include hygiene, dead code, lock order, hot
// path) need the whole tree — the include graph, the cross-TU symbol
// index or the call graph — so they run on the ordered FileSummary
// list once the scan is done.
//
// Suppressions are applied centrally afterwards (driver.hpp), so
// passes report everything they see.
#pragma once

#include <ostream>
#include <vector>

#include "core.hpp"
#include "fix.hpp"
namespace gpuvar::analyzer { struct SymbolIndex; struct Tree; struct FlowGraph; }  // was: #include "index.hpp"

namespace gpuvar::analyzer {

/// PR 1 conventions: raw-double-quantity, raw-rng, cout-in-library,
/// bare-assert, pragma-once.
void run_style_pass(const Repo& repo, std::vector<Finding>& findings);

/// Thread-safety annotation coverage: raw-std-mutex (use gpuvar::Mutex
/// so clang -Wthread-safety sees a capability), unguarded-mutex (every
/// mutex member must be named by at least one GPUVAR_GUARDED_BY /
/// GPUVAR_REQUIRES / GPUVAR_ACQUIRE... annotation in the same file).
void run_thread_pass(const Repo& repo, std::vector<Finding>& findings);

/// Determinism hygiene: unordered-iteration, parallel-accum,
/// float-sort-key, locale-format, wall-clock.
void run_determinism_pass(const Repo& repo, std::vector<Finding>& findings);

/// Reduction hygiene (src/core, src/query): raw-loop-reduction — a
/// serial `+=` fold over a double range, or a <numeric> reduction
/// algorithm, outside the kernel layer; stats/kernels.hpp owns the
/// pinned lane order these bypass.
void run_reduction_pass(const Repo& repo, std::vector<Finding>& findings);

/// Observability surface: raw-trace-api (trace-layer internals —
/// current_lane, TraceSpan, trace_instant — stay inside src/obs;
/// instrumented code uses the GPUVAR_TRACE_* macros and installs sinks
/// via obs::ScopedTrace / obs::LaneScope).
void run_obs_pass(const Repo& repo, std::vector<Finding>& findings);

/// Include-graph layering over src/**: upward-include, include-cycle,
/// unknown-module. The layer DAG (rank grows upward, same-rank groups
/// may depend one-way on each other but never cyclically):
///   common(0) -> stats/obs(1) -> {gpu, thermal, hostbench}(2)
///     -> telemetry(3) -> {cluster, workloads, query}(4) -> core(5)
/// Files directly under src/ (the gpuvar.hpp umbrella) sit above core.
void run_layering_pass(const Tree& tree, std::vector<Finding>& findings);

/// Include hygiene over the cross-TU symbol index: unused-include (a
/// direct include whose export closure contributes no referenced
/// symbol), missing-direct-include (a used symbol reached only
/// transitively), forward-declarable (a header consumer that uses a
/// type only by pointer/reference). When `edits` is non-null, emits
/// one mechanical FixEdit per finding for --fix.
void run_include_pass(const Tree& tree, const SymbolIndex& index,
                      std::vector<Finding>& findings,
                      std::vector<FixEdit>* edits);

/// Dead code over src/ headers: a namespace-scope symbol declared in a
/// src/ header that no file outside the header and its associated
/// .cpp references. The public surface (src/gpuvar.hpp re-exports meant
/// for downstream users) is allowlisted in pass_deadcode.cpp.
void run_deadcode_pass(const Tree& tree, const SymbolIndex& index,
                       std::vector<Finding>& findings);

/// Lock discipline over the flow call graph (src/ only): lock-cycle
/// (two locks acquired in opposite orders on different paths — the
/// per-function held_before sets plus transitive acquired sets of
/// callees yield the pairwise order relation) and lock-held-across-wait
/// (a call made with a lock held whose callee is — or transitively
/// reaches — ThreadPool::submit/wait_idle/parallel_for).
void run_lockorder_pass(const Tree& tree, const FlowGraph& graph,
                        std::vector<Finding>& findings);

/// Hot-path hygiene (src/ only): the closure of GPUVAR_HOT functions
/// over resolved call edges must not allocate in loops
/// (alloc-in-hot-loop — directly or by calling an allocating helper
/// from a loop), take locks (lock-in-hot-path), do stream/stdio IO
/// (io-in-hot-path), or format strings in loops
/// (string-format-in-hot-loop).
void run_hotpath_pass(const Tree& tree, const FlowGraph& graph,
                      std::vector<Finding>& findings);

/// Analysis-plane surface: analysis-signature (in src/core headers,
/// analyze_* entry points must end in a `const <X>Options&` parameter;
/// the rule is strict, so no allow() suppresses it).
void run_analysis_pass(const Repo& repo, std::vector<Finding>& findings);

/// Intraprocedural span/string_view lifetime (src/ only, file-local —
/// runs during the scan like any file-local pass):
/// dangling-span on returning a view bound to an owning local,
/// by-value owner parameter, or temporary, and on storing a view
/// parameter into a member (`name_ = p`, ctor-init `name_(p)`).
void run_lifetime_pass(const Repo& repo, std::vector<Finding>& findings);

/// DOT dump of the module-level include graph (for DESIGN.md). Nodes
/// and edges are emitted from explicitly sorted vectors so the output
/// is stable byte-for-byte across platforms and thread counts.
void write_layering_dot(const Tree& tree, std::ostream& out);

}  // namespace gpuvar::analyzer
