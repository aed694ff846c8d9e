// The `gpuvar` command-line driver, as a testable library. One command
// produces campaigns, one analyzes them:
//
//   clusters                list the built-in cluster models
//   workloads               list the built-in workload models
//   run     [--cluster L] [--workload W] [--runs N] [--reps N]
//           [--coverage F] [--power-limit W] [--checkpoint DIR]
//           [--shard-budget B] [--sweep day|power] [--power-caps W,...]
//           [--out FILE.csv] [--report FILE.md] [--summary FILE]
//           [--trace FILE] [--metrics FILE]
//                           run a campaign (in memory, or checkpointed
//                           into a resumable store), print its
//                           variability table, write the artifacts
//   analyze SRC [--analysis A] [--where F=LO..HI,...] [--against SRC]
//           [--threads N] [--materialize]
//                           one analysis over SRC: a checkpoint store
//                           (streamed, each shard decoded once, shards
//                           the filter rules out never read) or a
//                           results CSV
//
// `analyze` accepts any CSV with the results schema, including ones
// collected on real hardware, so the suite works as a standalone
// fleet-analysis tool, not only with the simulator. The flag tables in
// cli.cpp are the full reference; `gpuvar` with no arguments prints
// them.
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "workloads/workload.hpp"

namespace gpuvar::cli {

/// One row of the cluster registry: the single source of truth behind
/// name resolution, the `clusters` listing, and error suggestions.
struct ClusterEntry {
  const char* name;
  const char* description;
  /// Hidden entries resolve by name but stay out of listings (variants
  /// like summit-full that exist for scripting, not discovery).
  bool hidden;
  ClusterSpec (*make)();
};

/// One row of the workload registry (see ClusterEntry). The factory
/// receives the iteration override already defaulted.
struct WorkloadEntry {
  const char* name;
  const char* description;
  bool hidden;
  int default_iterations;
  WorkloadSpec (*make)(int iterations);
};

/// One flag a subcommand accepts. A null value_hint marks a boolean
/// flag (present/absent, no value token follows it).
struct FlagSpec {
  const char* name;        ///< without the leading "--"
  const char* value_hint;  ///< e.g. "N", "FILE"; nullptr = boolean
  const char* description;
};

/// One subcommand row: the same single-table discipline as
/// ClusterEntry/WorkloadEntry, extended to the command plane. The table
/// drives dispatch, the usage renderer, and unknown-flag suggestions —
/// adding a command or flag is one row, never three hand-kept lists.
struct CommandSpec {
  const char* name;
  const char* args_hint;  ///< positional args, e.g. "FILE.csv"; "" if none
  const char* description;
  std::span<const FlagSpec> flags;
};

/// The full registries, hidden entries included.
std::span<const ClusterEntry> cluster_registry();
std::span<const WorkloadEntry> workload_registry();
std::span<const CommandSpec> command_registry();

/// Builds a spec by name; throws std::invalid_argument on unknown names,
/// listing the valid ones.
ClusterSpec cluster_by_name(const std::string& name);

/// Builds a workload by name with an iteration/repetition override
/// (<= 0 keeps the paper's default). Unknown names throw
/// std::invalid_argument, listing the valid ones.
WorkloadSpec workload_by_name(const std::string& name, int iterations = 0);

/// Entry point. Returns the process exit code; writes human output to
/// `out` and errors/usage to `err`. Never throws.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace gpuvar::cli
