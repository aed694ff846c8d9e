// The ops of the end-to-end benchmark. Each op calls one layer's public
// entry points, times them from outside the library, and then checks
// what they returned; the check runs after the clock stops. An op that
// throws or fails a check is counted as failed and its samples are
// dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "query/dataset.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar::e2e {

class SpanLog;

/// (metric, value) pairs one op measured.
using Samples = std::vector<std::pair<std::string, double>>;

/// Attempted and failed op counts, and the samples of the ops that
/// passed their checks.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> samples;

  /// Runs `op`. A throw, including a failed check, counts the op as
  /// failed and drops its samples.
  void attempt(const std::string& what,
               const std::function<void(Samples&)>& op);
  /// The most recent sample of `metric`; throws if there is none.
  double last(const std::string& metric) const;
};

/// Span op ids. Node jobs of the decomposition pass use kOpNodeJob plus
/// their bucket index, so every span of one job shares an id.
enum : std::uint64_t {
  kOpSetup = 1,
  kOpCampaign,
  kOpResume,
  kOpQueryCold,
  kOpQueryWarm,
  kOpQueryFiltered,
  kOpAnalyses,
  kOpMaterialize,
  kOpCsv,
  kOpCore,
  kOpDecompose,
  kOpNodeJob = 1000,
};

/// What a workload times, again and again while the clock runs. Each
/// op's time (op_wall_ms) is the sum of its parts' timed regions.
enum class Op {
  kCampaign,    ///< run_campaign into a new store
  kStoreCycle,  ///< kCampaign, then run_campaign over that completed store
  kQueryPass,   ///< the six query ops (query_pass) over the set-up's store
};

/// The workload picks the simulated application, the share of
/// summit-full's nodes a campaign covers, the shard budget and the op,
/// and so which layers the measured time goes to.
struct WorkloadDef {
  const char* name;
  const char* app;  ///< name in the CLI workload registry
  double coverage;
  std::uint64_t shard_budget_bytes;
  Op op;
};

/// The part metrics whose sum is one op of `op`.
std::vector<const char*> op_parts(Op op);

/// How much work one run does.
struct Scale {
  double coverage = 1.0;
  double warmup_coverage = 0.05;
  /// Measured window; 0 runs one set-up and one op.
  double seconds = 28.0;
};

/// A completed store opened for querying, with the reports the streamed
/// paths must reproduce byte for byte (computed on the materialized
/// frame, the --materialize reference path).
struct QueryFixture {
  QueryFixture(std::filesystem::path store, query::Dataset dataset)
      : dir(std::move(store)), warm(std::move(dataset)) {}

  std::filesystem::path dir;
  query::Dataset warm;  ///< its decoded-shard cache holds every shard
  RecordFrame frame;    ///< warm.materialize()
  std::string variability;
  std::string filtered;
  std::string correlation;
  std::string flags;
  std::string drift;
  std::string impact;
  std::string csv;  ///< export_frame_csv(frame)
  /// The report of `csv` imported again. The CSV prints doubles
  /// rounded, so it need not equal `variability`; it must be stable.
  std::string csv_variability;
};

/// The state of one workload process. Constructing it creates the work
/// dir; destroying it empties every file the run wrote there but
/// deletes none (see pipeline.cpp for why).
struct Bench {
  Bench(const WorkloadDef& def, const Scale& scale, std::uint64_t seed,
        std::size_t threads, std::filesystem::path work);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const WorkloadDef& def;
  const Scale scale;
  const std::uint64_t seed;
  ThreadPool pool;
  const std::filesystem::path work;
  SpanLog* spans = nullptr;  ///< null: untraced
  Ledger ledger;

  std::unique_ptr<Cluster> cluster;
  ExperimentConfig config;
  std::size_t expected_rows = 0;
  query::Predicate where;  ///< the filtered query's node window
  /// hash_frame_shard of the first campaign frame of this seed.
  std::optional<std::uint64_t> frame_hash;
  std::optional<QueryFixture> fixture;
  std::filesystem::path store;  ///< the last completed campaign's store
  int stores_made = 0;
  /// The CSV round trip's file, overwritten in place by every round trip.
  std::filesystem::path csv;
};

/// Everything before the first timed op (setup_wall_s): the summit-full
/// Cluster, the node allocations, the config hash and a warm-up. The
/// warm-up of a kQueryPass workload writes the store its queries read
/// and runs one cold query over it; any other warm-up is an in-memory
/// campaign at the warm-up coverage. Running it again later replaces
/// the Cluster with an identical one.
void set_up(Bench& b);
/// Runs the workload's op once; if every part passed its checks, adds
/// its time as an op_wall_ms sample.
void workload_op(Bench& b);
/// run_campaign into a new checkpoint directory (campaign_ms); on
/// success it becomes b.store.
void campaign_op(Bench& b);
/// run_campaign over the completed b.store (resume_ms).
void resume_op(Bench& b);
/// Opens the store in `dir` as b.fixture.
void open_fixture(Bench& b, const std::filesystem::path& dir);

/// The query ops, each timed once.
void query_cold(Bench& b);
void query_warm(Bench& b);
void query_filtered(Bench& b);
void query_analyses(Bench& b);
void query_materialize(Bench& b);
void csv_roundtrip(Bench& b);
/// The six query ops above, in order.
void query_pass(Bench& b);

/// Traced run only: each analyze_* over a Source borrowing the
/// materialized frame (pure compute, core.*_ms).
void core_analyses(Bench& b);
/// Traced run only: re-runs the campaign's stages one public entry
/// point at a time on the same allocations and pool — run_on_node,
/// to_record/append_row, serialize_frame_shard — then parses every
/// file of b.store and merges the buckets in index order.
void decompose(Bench& b);

}  // namespace gpuvar::e2e
