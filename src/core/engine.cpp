#include "core/engine.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/allocator.hpp"
#include "cluster/cluster.hpp"
#include "common/binio.hpp"
#include "common/mutex.hpp"
#include "common/numfmt.hpp"
#include "common/require.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/experiment.hpp"
#include "core/record.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/shard.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {

namespace {

namespace fs = std::filesystem;

// Manifest parsing/rendering lives in telemetry/manifest.hpp, shared
// with the read-only query plane; these aliases keep the engine's
// write-path code in its established vocabulary.
using Manifest = CampaignManifest;
using ManifestEntry = CampaignManifestEntry;
constexpr const char* kManifestName = kCampaignManifestName;
constexpr const char* kMarkerName = kCampaignMarkerName;

/// Buckets the merge reads back per dispatch, per pool worker: enough
/// to amortize a parallel_for, few enough that the decoded window stays
/// small next to the merged frame.
constexpr std::size_t kMergeWindowPerWorker = 64;

/// Serializes one bucket straight to its shard file. The manifest line,
/// appended only after this returns, is the commit record: a kill
/// mid-write leaves a torn file under the final name but no line for
/// it, so resume re-runs the bucket (and the resume scan and Dataset
/// hash-check every listed payload anyway).
FrameShardInfo persist_shard(const fs::path& dir, std::size_t bucket_index,
                             const RecordFrame& bucket,
                             std::uint64_t& bytes_written) {
  const fs::path path = dir / campaign_shard_file_name(bucket_index);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("cannot write " + path.string());
  }
  const FrameShardInfo info = write_frame_shard(
      out, bucket, static_cast<std::uint64_t>(bucket_index));
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("write failed: " + path.string());
  }
  bytes_written = info.payload_bytes + kFrameShardHeaderBytes;
  return info;
}

/// Shared mutable state of the execute stage. Buckets themselves are
/// NOT guarded: a running bucket is owned by exactly one worker, and a
/// completed bucket is only touched — for eviction or merge — under mu
/// or after the pool has joined.
struct EngineState {
  Mutex mu;
  std::ofstream manifest GPUVAR_GUARDED_BY(mu);
  std::map<std::uint64_t, ManifestEntry> entries GPUVAR_GUARDED_BY(mu);
  /// Completed buckets still in memory, keyed (bytes, bucket index): the
  /// last element is the eviction victim — the largest bucket, ties to
  /// the higher index.
  std::set<std::pair<std::uint64_t, std::size_t>> resident
      GPUVAR_GUARDED_BY(mu);
  std::uint64_t resident_bytes GPUVAR_GUARDED_BY(mu) = 0;
  std::uint64_t resident_peak GPUVAR_GUARDED_BY(mu) = 0;
  std::uint64_t bucket_max GPUVAR_GUARDED_BY(mu) = 0;
  std::uint64_t shard_bytes GPUVAR_GUARDED_BY(mu) = 0;
  std::size_t spilled GPUVAR_GUARDED_BY(mu) = 0;
  std::size_t done GPUVAR_GUARDED_BY(mu) = 0;
};

}  // namespace

namespace {

/// Appends a canonical rendering of every WorkloadSpec field that
/// changes what a run measures. The name alone is not an identity:
/// `gpuvar run --reps N` rebuilds the spec with different iteration
/// counts under the same name, and a checkpoint recorded under one
/// reps value must refuse to merge shards measured under another.
void append_workload_identity(std::string& key, const WorkloadSpec& w) {
  key += ";workload=" + w.name;
  key += ";metric=" + to_string(w.metric);
  key += ";gpus_per_job=" + format_int(w.gpus_per_job);
  key += ";iterations=" + format_int(w.iterations);
  key += ";warmup=" + format_int(w.warmup_iterations);
  key += ";gap=" + format_double(w.inter_kernel_gap.value(), 17);
  key += ";allreduce=" + format_double(w.allreduce_seconds.value(), 17);
  key += ";gpu_sigma=" + format_double(w.gpu_sensitivity_sigma, 17);
  key += ";power_sigma=" + format_double(w.power_jitter_sigma, 17);
  for (const KernelStep& s : w.iteration) {
    key += ";step=" + s.kernel.name;
    key += ",count=" + format_int(s.count);
    key += ",long=";
    key += s.long_kernel ? '1' : '0';
    key += ",flops=" + format_double(s.kernel.flops, 17);
    key += ",bytes=" + format_double(s.kernel.bytes, 17);
    key += ",ce=" + format_double(s.kernel.compute_efficiency, 17);
    key += ",be=" + format_double(s.kernel.bw_efficiency, 17);
    key += ",act=" + format_double(s.kernel.activity, 17);
    key += ",floor=" + format_double(s.kernel.stall_activity_floor, 17);
    key += ",fu=" + format_double(s.kernel.fu_util, 17);
    key += ",dram=" + format_double(s.kernel.dram_util, 17);
    key += ",mstall=" + format_double(s.kernel.mem_stall_frac, 17);
    key += ",estall=" + format_double(s.kernel.exec_stall_frac, 17);
  }
}

}  // namespace

std::uint64_t campaign_config_hash(const Cluster& cluster,
                                   const ExperimentConfig& config) {
  // Canonical key=value string over every field that changes what the
  // campaign measures. Formatting goes through numfmt, so the hash is
  // locale- and platform-stable.
  std::string key;
  key += "cluster=" + cluster.name();
  key += ";seed=" + format_int(static_cast<long long>(cluster.spec().seed));
  key += ";nodes=" + format_int(cluster.node_count());
  key += ";gpus_per_node=" + format_int(cluster.gpus_per_node());
  append_workload_identity(key, config.workload);
  key += ";runs=" + format_int(config.runs_per_gpu);
  key += ";coverage=" + format_double(config.node_coverage, 17);
  key += ";day=" + format_int(config.day_of_week);
  key += ";salt=" + format_int(static_cast<long long>(config.salt));
  key += ";power=" +
         format_double(config.run_options.power_limit_override.value(), 17);
  return binio::fnv1a64(key);
}

CampaignResult run_campaign(const Cluster& cluster,
                            const ExperimentConfig& config,
                            const CampaignOptions& options) {
  config.workload.validate();
  GPUVAR_REQUIRE(config.runs_per_gpu >= 1);
  const bool durable = !options.checkpoint_dir.empty();
  const bool bounded = options.shard_budget_bytes != kUnlimitedShardBudget;
  GPUVAR_REQUIRE_MSG(durable || !bounded,
                     "a bounded shard budget needs a checkpoint directory "
                     "to spill into (set CampaignOptions::checkpoint_dir)");

  obs::LaneScope campaign_lane(0, "campaign");

  // --- plan -------------------------------------------------------------
  ExclusiveAllocator allocator(cluster);
  const auto allocations = allocator.sample_coverage(config.node_coverage);

  CampaignResult out;
  out.config_hash = campaign_config_hash(cluster, config);
  out.stats.buckets_total = allocations.size();
  out.nodes_measured = allocations.size();
  // Degenerate campaign (zero coverage / empty cluster): empty frame,
  // no checkpoint machinery, and config.progress is never invoked.
  if (allocations.empty()) return out;

  GPUVAR_TRACE_SPAN("engine", "run_campaign", "buckets",
                    static_cast<std::int64_t>(allocations.size()));
  GPUVAR_METRIC_MAX("experiment.nodes", allocations.size());
  GPUVAR_METRIC_MAX("experiment.runs_per_gpu", config.runs_per_gpu);

  RunOptions opts = config.run_options;
  // Fold the day tag into seeds so Monday's transients differ from
  // Tuesday's while the hardware population stays identical.
  opts.run_salt = config.salt * 101 +
                  (config.day_of_week >= 0
                       ? static_cast<std::uint64_t>(config.day_of_week) + 1
                       : 0);

  // --- resume scan ------------------------------------------------------
  ThreadPool& pool = config.pool ? *config.pool : ThreadPool::global();
  const fs::path dir(options.checkpoint_dir);
  std::vector<char> done_before(allocations.size(), 0);
  EngineState st;
  if (durable) {
    GPUVAR_TRACE_SPAN("engine", "resume_scan");
    fs::create_directories(dir);
    Manifest m = read_campaign_manifest(dir / kManifestName);
    if (m.exists && m.config_hash != out.config_hash) {
      throw std::runtime_error(
          options.checkpoint_dir +
          ": checkpoint belongs to a different campaign (config hash " +
          format_hex(m.config_hash) + ", this campaign is " +
          format_hex(out.config_hash) + ")");
    }
    // Trust nothing: every listed shard must parse end to end and agree
    // with the manifest's row count and payload hash. Anything less and
    // the bucket re-runs from its seed path. The shards are checked in
    // parallel; the verdicts fold in bucket order below.
    std::vector<const std::pair<const std::uint64_t, ManifestEntry>*> listed;
    listed.reserve(m.entries.size());
    for (const auto& entry : m.entries) listed.push_back(&entry);
    std::vector<char> ok(listed.size(), 0);
    pool.parallel_for(listed.size(), [&](std::size_t k) {
      const auto& [idx, e] = *listed[k];
      if (idx >= allocations.size()) return;
      try {
        const FrameShard s = read_frame_shard(
            dir / campaign_shard_file_name(static_cast<std::size_t>(idx)));
        ok[k] = s.info.bucket_index == idx && s.info.rows == e.info.rows &&
                s.info.payload_hash == e.info.payload_hash;
      } catch (const std::runtime_error&) {
        // Unreadable or malformed: the verdict stays "re-run".
      }
    });
    std::map<std::uint64_t, ManifestEntry> valid;
    for (std::size_t k = 0; k < listed.size(); ++k) {
      if (ok[k] != 0) {
        valid.insert(valid.end(), *listed[k]);
        done_before[static_cast<std::size_t>(listed[k]->first)] = 1;
      } else {
        ++out.stats.buckets_rerun_stale;
      }
    }
    // Rewrite the manifest down to the entries that survived, then mark
    // the campaign in progress and reopen the manifest for appending.
    rewrite_campaign_manifest(dir, out.config_hash, valid, /*done=*/false);
    {
      std::ofstream marker(dir / kMarkerName, std::ios::trunc);
      marker << "campaign in progress\n";
    }
    MutexLock lock(st.mu);
    st.entries = std::move(valid);
    st.manifest.open(dir / kManifestName, std::ios::app);
    if (!st.manifest.good()) {
      throw std::runtime_error("cannot append to " +
                               (dir / kManifestName).string());
    }
  }
  if (durable) {
    GPUVAR_METRIC_ADD("engine.buckets_rerun_stale",
                      out.stats.buckets_rerun_stale);
  }

  // --- execute ----------------------------------------------------------
  // Restored buckets count toward progress first (in index order), so
  // the callback still sees a monotone 1..total sequence on resume.
  std::vector<RecordFrame> buckets(allocations.size());
  const std::size_t total = allocations.size();
  for (std::size_t ai = 0; ai < total; ++ai) {
    if (!done_before[ai]) continue;
    ++out.stats.buckets_restored;
    if (config.progress != nullptr) {
      MutexLock lock(st.mu);
      ++st.done;
      config.progress(st.done, total);
    }
  }
  if (durable) {
    GPUVAR_METRIC_ADD("engine.buckets_restored", out.stats.buckets_restored);
  }

  {
    GPUVAR_TRACE_SPAN("engine", "execute", "buckets",
                      static_cast<std::int64_t>(total -
                                                out.stats.buckets_restored));
    // Workers take st.mu per completion; nothing holds it across the
    // dispatch below (the lockorder pass's lock-held-across-wait rule).
    pool.parallel_for(total, [&](std::size_t ai) {
      if (done_before[ai]) return;
      const auto& alloc = allocations[ai];
      obs::LaneScope job_lane(static_cast<std::uint32_t>(ai) + 1,
                              "node " + std::to_string(alloc.node));
      GPUVAR_TRACE_SPAN("engine", "node_job", "node", alloc.node);
      GPUVAR_METRIC_COUNT("experiment.node_jobs");
      RecordFrame& bucket = buckets[ai];
      for (int run = 0; run < config.runs_per_gpu; ++run) {
        const auto results =
            run_on_node(cluster, alloc.node, config.workload, run, opts);
        for (const auto& res : results) {
          bucket.append_row(to_record(cluster, res, config.day_of_week));
        }
      }

      // Durability first: once the shard and its manifest line are on
      // disk, a crash anywhere later never re-runs this bucket.
      FrameShardInfo info;
      std::uint64_t file_bytes = 0;
      if (durable) {
        info = persist_shard(dir, ai, bucket, file_bytes);
        GPUVAR_METRIC_COUNT("engine.shards_written");
        GPUVAR_METRIC_ADD("engine.shard_bytes_written", file_bytes);
      }

      const std::uint64_t bytes = bucket.memory_bytes();
      MutexLock lock(st.mu);
      if (durable) {
        st.manifest << campaign_manifest_entry_line(info) << "\n";
        st.manifest.flush();
        if (!st.manifest.good()) {
          throw std::runtime_error("manifest append failed in " +
                                   dir.string());
        }
        st.entries[info.bucket_index] = ManifestEntry{info};
        st.shard_bytes += file_bytes;
      }
      // Residency accounting: the fresh bucket is counted before any
      // eviction, which is exactly why the peak is bounded by
      // budget + one bucket rather than by the budget alone.
      st.resident.emplace(bytes, ai);
      st.resident_bytes += bytes;
      if (bytes > st.bucket_max) st.bucket_max = bytes;
      if (st.resident_bytes > st.resident_peak) {
        st.resident_peak = st.resident_bytes;
      }
      GPUVAR_METRIC_MAX("engine.resident_bytes_peak", st.resident_bytes);
      GPUVAR_METRIC_MAX("engine.bucket_bytes_max", bytes);
      while (bounded && st.resident_bytes > options.shard_budget_bytes &&
             !st.resident.empty()) {
        // Largest resident bucket first; ties go to the higher index so
        // the choice is deterministic for a fixed completion state.
        const auto victim = std::prev(st.resident.end());
        buckets[victim->second] = RecordFrame();
        st.resident_bytes -= victim->first;
        st.resident.erase(victim);
        ++st.spilled;
        GPUVAR_METRIC_COUNT("engine.buckets_spilled");
      }
      ++st.done;
      if (config.progress != nullptr) config.progress(st.done, total);
    });
  }

  // The pool has joined: st is ours alone again.
  {
    MutexLock lock(st.mu);
    out.stats.buckets_run = total - out.stats.buckets_restored;
    out.stats.buckets_spilled = st.spilled;
    out.stats.shard_bytes_written = st.shard_bytes;
    out.stats.resident_bytes_peak = st.resident_peak;
    out.stats.bucket_bytes_max = st.bucket_max;
    if (durable) st.manifest.close();
  }

  // --- merge ------------------------------------------------------------
  {
    GPUVAR_TRACE_SPAN("engine", "merge", "buckets",
                      static_cast<std::int64_t>(total));
    // Copy the residency flags out and drop the lock: nothing may hold
    // st.mu across the read-back's dispatches. Size the merged frame
    // once: a resident bucket knows its rows, and the manifest entry of
    // every other bucket records them.
    std::vector<char> resident(total, 0);
    std::size_t rows = 0;
    {
      MutexLock lock(st.mu);
      for (const auto& [bytes, ai] : st.resident) resident[ai] = 1;
      for (const auto& [idx, e] : st.entries) {
        if (resident[idx] == 0) rows += static_cast<std::size_t>(e.info.rows);
      }
    }
    for (std::size_t ai = 0; ai < total; ++ai) {
      if (resident[ai] != 0) rows += buckets[ai].size();
    }
    out.frame.reserve(rows);

    // Restored or evicted buckets are read back a window at a time, in
    // parallel, and appended in bucket-index order. read_frame_shard
    // re-validates the whole file, so a shard corrupted since the scan
    // fails loudly instead of merging garbage; the lowest failing index
    // is reported, whichever worker failed first.
    const std::size_t window = kMergeWindowPerWorker * pool.size();
    std::vector<std::exception_ptr> errors(window);
    for (std::size_t lo = 0; lo < total; lo += window) {
      const std::size_t n = std::min(window, total - lo);
      const auto first = resident.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = first + static_cast<std::ptrdiff_t>(n);
      if (std::find(first, last, 0) != last) {
        pool.parallel_for(n, [&](std::size_t k) {
          const std::size_t ai = lo + k;
          if (resident[ai] != 0) return;
          try {
            buckets[ai] =
                read_frame_shard(dir / campaign_shard_file_name(ai)).frame;
          } catch (...) {
            errors[k] = std::current_exception();
          }
        });
        for (std::size_t k = 0; k < n; ++k) {
          if (errors[k]) std::rethrow_exception(errors[k]);
        }
      }
      for (std::size_t ai = lo; ai < lo + n; ++ai) {
        out.frame.append(buckets[ai]);
        buckets[ai] = RecordFrame();
      }
    }
  }

  if (durable) {
    MutexLock lock(st.mu);
    rewrite_campaign_manifest(dir, out.config_hash, st.entries, /*done=*/true);
    fs::remove(dir / kMarkerName);
  }

  out.gpus_measured = out.frame.gpu_count();
  GPUVAR_METRIC_ADD("experiment.records", out.frame.size());
  return out;
}

void write_campaign_summary(std::ostream& out, const CampaignResult& result) {
  // Only facts that are pure functions of (cluster, config) appear
  // here — never whether buckets were restored, spilled, or re-run —
  // so the bytes match between an uninterrupted campaign and any
  // interrupted-then-resumed replay of it. The content hash streams
  // over the merged frame (hash_frame_shard) rather than serializing
  // it: the frame can be far larger than any shard budget, and a full
  // serialized copy would double peak memory exactly where the
  // bounded-budget engine promises not to.
  out << "gpuvar-campaign-summary v1\n";
  out << "buckets " << format_int(static_cast<long long>(
                           result.stats.buckets_total)) << "\n";
  out << "config " << format_hex(result.config_hash) << "\n";
  out << "frame_hash " << format_hex(hash_frame_shard(result.frame, 0))
      << "\n";
  out << "gpus " << format_int(static_cast<long long>(result.gpus_measured))
      << "\n";
  out << "nodes " << format_int(static_cast<long long>(result.nodes_measured))
      << "\n";
  out << "rows " << format_int(static_cast<long long>(result.frame.size()))
      << "\n";
}

std::vector<CampaignJob> day_of_week_sweep(const ExperimentConfig& base) {
  std::vector<CampaignJob> jobs;
  jobs.reserve(7);
  for (int day = 0; day < 7; ++day) {
    CampaignJob job;
    job.name = "day-" + format_int(day);
    job.config = base;
    job.config.day_of_week = day;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> power_cap_sweep(const ExperimentConfig& base,
                                         const std::vector<double>& caps_w) {
  GPUVAR_REQUIRE_MSG(!caps_w.empty(), "power-cap sweep needs at least one cap");
  std::vector<CampaignJob> jobs;
  jobs.reserve(caps_w.size());
  for (double cap : caps_w) {
    GPUVAR_REQUIRE_MSG(cap >= 0.0, "power cap must be >= 0 W");
    CampaignJob job;
    job.name = "cap-" + format_int(static_cast<long long>(cap)) + "w";
    job.config = base;
    job.config.run_options.power_limit_override = Watts{cap};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<SweepJobResult> run_campaign_sweep(
    const Cluster& cluster, const std::vector<CampaignJob>& jobs,
    const CampaignOptions& options) {
  std::vector<SweepJobResult> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    GPUVAR_REQUIRE_MSG(!job.name.empty(), "sweep job needs a name");
    for (char c : job.name) {
      GPUVAR_REQUIRE_MSG(
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-',
          "sweep job name must be [a-z0-9-]: " + job.name);
    }
    CampaignOptions job_options = options;
    if (!options.checkpoint_dir.empty()) {
      job_options.checkpoint_dir =
          (fs::path(options.checkpoint_dir) / job.name).string();
    }
    SweepJobResult r;
    r.name = job.name;
    r.result = run_campaign(cluster, job.config, job_options);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace gpuvar
