// The campaign engine: a staged, checkpointable pipeline over node jobs.
//
// One cycle of a campaign (core/experiment.hpp) fits in memory; a real
// characterization campaign is days of cycles over tens of thousands
// of GPUs, and it gets killed — by scheduler preemption, by a node
// reboot, by the operator. The engine runs the node jobs through four
// stages:
//
//   plan         validate the config, sample node allocations, derive
//                the campaign's config hash (the checkpoint identity)
//   resume scan  read the checkpoint manifest, re-validate every shard
//                it lists in parallel (missing / truncated / hash-stale
//                shards are demoted to "must re-run"), rewrite the
//                manifest to the surviving entries
//   execute      run the not-yet-done buckets in parallel; each
//                completed bucket is serialized to a FrameShard
//                (telemetry/shard.hpp), logged in the manifest, and —
//                when resident bucket bytes exceed the shard budget —
//                evicted from memory (largest bucket first)
//   merge        concatenate all buckets in bucket-index order, reading
//                evicted or restored buckets back from their shards a
//                window at a time, each window decoded in parallel
//
// Determinism contract: the merged frame (and so every downstream CSV
// / report byte) is identical at any pool size and ANY spill threshold,
// because shards round-trip frames bit-exactly and the merge order is
// bucket index, never completion order. Replaying a killed campaign is
// exact for the same reason every run is: all random draws are keyed by
// (cluster seed, GPU path, run index, salt), never by schedule or by
// which buckets happen to re-run.
//
// Memory contract: with a bounded shard_budget_bytes, resident
// *completed-bucket* bytes never exceed budget + one bucket (the bucket
// that just completed is counted before eviction runs), and the merge's
// read-back holds at most one window of decoded shards at a time. The
// engine reports the observed peak through the metrics registry
// ("engine.resident_bytes_peak") and in CampaignStats.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar {

class Cluster;

/// shard_budget_bytes value meaning "never evict for memory reasons".
inline constexpr std::uint64_t kUnlimitedShardBudget = ~std::uint64_t{0};

struct CampaignOptions {
  /// Checkpoint directory: shards and the manifest live here. Empty =
  /// purely in-memory campaign (no durability, no spilling).
  std::string checkpoint_dir;
  /// Resident-byte budget for completed buckets. Any bounded value
  /// (including 0: spill everything) requires a checkpoint_dir to spill
  /// into; kUnlimitedShardBudget keeps every bucket resident.
  std::uint64_t shard_budget_bytes = kUnlimitedShardBudget;
};

/// What one engine invocation did (counters for tests, CI and logs).
struct CampaignStats {
  std::size_t buckets_total = 0;     ///< node jobs in the campaign
  std::size_t buckets_run = 0;       ///< executed by this invocation
  std::size_t buckets_restored = 0;  ///< merged from prior-run shards
  /// Manifest entries whose shard was missing, truncated, or failed the
  /// hash check — demoted to re-run during the resume scan.
  std::size_t buckets_rerun_stale = 0;
  std::size_t buckets_spilled = 0;   ///< evictions (schedule-dependent)
  std::uint64_t shard_bytes_written = 0;  ///< by this invocation
  /// Peak resident completed-bucket bytes (<= budget + one bucket).
  std::uint64_t resident_bytes_peak = 0;
  std::uint64_t bucket_bytes_max = 0;
};

struct CampaignResult {
  RecordFrame frame;
  std::size_t gpus_measured = 0;
  std::size_t nodes_measured = 0;
  /// Identity of (cluster, config): the checkpoint compatibility key.
  std::uint64_t config_hash = 0;
  CampaignStats stats;
};

/// Runs (or resumes) one campaign. With default options it runs
/// entirely in memory: no checkpoint, every bucket resident.
/// Degenerate campaigns — zero node coverage or an empty cluster —
/// return an empty frame and never invoke config.progress. Throws
/// std::invalid_argument on a bounded budget without a checkpoint_dir,
/// std::runtime_error on checkpoint I/O failures or a checkpoint_dir
/// recorded by a different campaign.
CampaignResult run_campaign(const Cluster& cluster,
                            const ExperimentConfig& config,
                            const CampaignOptions& options = {});

/// FNV-1a identity of (cluster, config): every field that changes what
/// the campaign would measure. Two configs with equal hashes may share
/// a checkpoint directory; the manifest stores it and refuses to resume
/// under a different one.
std::uint64_t campaign_config_hash(const Cluster& cluster,
                                   const ExperimentConfig& config);

/// Writes the deterministic campaign summary: sorted `key value` lines
/// derived only from the merged result (row count, content hash, ...),
/// never from execution history — an interrupted-then-resumed campaign
/// produces byte-identical summary output to an uninterrupted one.
void write_campaign_summary(std::ostream& out, const CampaignResult& result);

/// One entry of a multi-campaign sweep: a named config variation.
struct CampaignJob {
  std::string name;  ///< checkpoint subdirectory; [a-z0-9-] only
  ExperimentConfig config;
};

/// Jobs "day-0".."day-6": the paper's day-of-week split, one campaign
/// per day tag (each folds its day into the run seeds).
std::vector<CampaignJob> day_of_week_sweep(const ExperimentConfig& base);

/// Jobs "cap-<watts>w", one campaign per power-cap override (the
/// paper's §VI power-cap sensitivity study).
std::vector<CampaignJob> power_cap_sweep(const ExperimentConfig& base,
                                         const std::vector<double>& caps_w);

struct SweepJobResult {
  std::string name;
  CampaignResult result;
};

/// Runs the jobs in order through the engine. With a checkpoint_dir,
/// each job checkpoints into `<dir>/<job name>`; resuming a killed
/// sweep skips completed jobs entirely (their manifests are final) and
/// resumes the interrupted one bucket-by-bucket.
std::vector<SweepJobResult> run_campaign_sweep(
    const Cluster& cluster, const std::vector<CampaignJob>& jobs,
    const CampaignOptions& options = {});

}  // namespace gpuvar
