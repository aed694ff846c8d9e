// gpuvar_e2e: the paper-scale end-to-end benchmark of the gpuvar
// pipeline (see README.md beside this file).
//
//   gpuvar_e2e --workload NAME --seed N --threads T --work-dir DIR
//              --json FILE [--trace FILE] [--seconds S] [--smoke]
//
// One process runs one workload on the full Summit model (4,176 nodes,
// 25,056 V100s) and times calls into each layer's public API from
// outside the library. Every op's output is checked after its clock
// stops; a throw or a failed check counts against error_rate.
//
// Untraced, the workload sets up and repeats its op (see Op) for
// --seconds, setting up kSetUps times in all, and reports each end-to-end
// metric as the median over its samples, times scaled to the speed of a
// fixed reference kernel (see ReferenceKernel). With --trace it runs a
// campaign, a resume and a query pass untraced, then again with the
// obs::Registry installed and host-time spans around every layer call
// (written to FILE), decomposes the campaign layer by layer, and
// reports the per-layer metrics instead.
// Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "spans.hpp"
#include "stats/kernels.hpp"
#include "stats/quantile.hpp"

#ifndef GPUVAR_E2E_BUILD_TYPE
#define GPUVAR_E2E_BUILD_TYPE "unknown"
#endif

namespace gpuvar::e2e {

namespace {

namespace fs = std::filesystem;

// Timing a build without optimisation, or with asserts compiled in,
// measures the wrong program, so gpuvar_e2e refuses to run one.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

// Why each workload exists is recorded in README.md: sgemm and resnet
// load the simulator two different ways, store is write-heavy and
// bypasses the tick loop, query is read-heavy and runs no simulation.
constexpr WorkloadDef kWorkloads[] = {
    {"summit-sgemm", "sgemm", 0.25, kUnlimitedShardBudget, Op::kCampaign},
    {"summit-resnet", "resnet-multi", 0.25, kUnlimitedShardBudget,
     Op::kCampaign},
    {"summit-store", "pagerank", 1.0, 0, Op::kStoreCycle},
    {"summit-query", "pagerank", 1.0, 0, Op::kQueryPass},
};

/// Set-ups per untraced run; the measured window is split evenly
/// between them, so setup_s is a median of this many samples.
constexpr int kSetUps = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run, each as the median over the run's
/// samples; setup_s and op_ms are scaled to the reference kernel's speed
/// (see ReferenceKernel). BENCHMARK.json lists the same names with their
/// bounds.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The wall times behind setup_s and op_ms, the reference kernel's
/// times, and the parts of op_wall_ms (see op_parts), all unscaled.
/// Printed and written to the results file where measured; not gated.
constexpr MetricDef kDetails[] = {
    {"setup_wall_s", "s"},       {"op_wall_ms", "ms"},
    {"reference_ms", "ms"},      {"campaign_ms", "ms"},
    {"resume_ms", "ms"},         {"query_cold_ms", "ms"},
    {"query_warm_ms", "ms"},     {"query_filtered_ms", "ms"},
    {"analyses_ms", "ms"},       {"materialize_ms", "ms"},
    {"csv_roundtrip_ms", "ms"},
};

/// Reported by every traced run.
constexpr MetricDef kPerLayer[] = {
    {"cluster.build_ms", "ms"},
    {"workloads.node_jobs", "count"},
    {"workloads.node_job_ms_p50", "ms"},
    {"workloads.node_job_ms_p99", "ms"},
    {"workloads.busy_s", "s"},
    {"workloads.iterations", "count"},
    {"gpu.dvfs_decisions", "count"},
    {"gpu.ladder_change_ratio", "ratio"},
    {"gpu.ns_per_decision", "ns"},
    {"thermal.rc_steps", "count"},
    {"engine.run_campaign_s", "s"},
    {"engine.parallel_efficiency", "ratio"},
    {"engine.overhead_s", "s"},
    {"engine.shards_written", "count"},
    {"engine.shard_bytes_written", "bytes"},
    {"engine.buckets_spilled", "count"},
    {"engine.resident_bytes_peak", "bytes"},
    {"engine.store_files", "count"},
    {"engine.store_read_ms", "ms"},
    {"telemetry.frame_build_ms", "ms"},
    {"telemetry.shard_encode_ms", "ms"},
    {"telemetry.shard_decode_ms", "ms"},
    {"telemetry.merge_ms", "ms"},
    {"telemetry.csv_export_ms", "ms"},
    {"telemetry.csv_import_ms", "ms"},
    {"telemetry.csv_bytes", "bytes"},
    {"query.open_ms", "ms"},
    {"query.plan_ms", "ms"},
    {"query.decode_cold_ms", "ms"},
    {"query.assemble_warm_ms", "ms"},
    {"query.materialize_ms", "ms"},
    {"query.cache_hits", "count"},
    {"query.cache_misses", "count"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.cache_bytes_peak", "bytes"},
    {"query.shards_scanned", "count"},
    {"query.shards_skipped", "count"},
    {"query.shard_skip_ratio", "ratio"},
    {"core.variability_ms", "ms"},
    {"core.correlate_ms", "ms"},
    {"core.flags_ms", "ms"},
    {"core.drift_ms", "ms"},
    {"core.impact_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::string work_dir;
  std::string json_path;
  std::string trace_path;  ///< empty: untraced
  double seconds = 28.0;
  bool smoke = false;
};

constexpr const char* kUsage =
    "usage: gpuvar_e2e --workload NAME --seed N --threads T --work-dir DIR\n"
    "                  --json FILE [--trace FILE] [--seconds S] [--smoke]\n"
    "workloads: summit-sgemm summit-resnet summit-store summit-query\n";

std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::ostream& err) {
  Args a;
  try {
    for (std::size_t i = 0; i < argv.size(); ++i) {
      const std::string& flag = argv[i];
      if (flag == "--smoke") {
        a.smoke = true;
        continue;
      }
      if (i + 1 >= argv.size()) {
        err << "missing value for " << flag << "\n";
        return std::nullopt;
      }
      const std::string& v = argv[++i];
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--threads") {
        a.threads = static_cast<std::size_t>(std::stoul(v));
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--json") {
        a.json_path = v;
      } else if (flag == "--trace") {
        a.trace_path = v;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else {
        err << "unknown flag " << flag << "\n";
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    err << "bad number in the arguments\n";
    return std::nullopt;
  }
  if (a.workload.empty() || a.threads == 0 || a.work_dir.empty() ||
      a.json_path.empty() || !(a.seconds >= 0.0)) {
    err << "--workload, --threads >= 1, --work-dir and --json are required\n";
    return std::nullopt;
  }
  return a;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<std::uint8_t>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- untraced run ---------------------------------------------------------

// The reference host's speed drifts by up to 25% in phases of 20-60 s,
// longer than a run, and a phase moves every timing of the run at once.
// So an untraced run also times a fixed reference kernel before each
// set-up and each op, and reports setup_s and op_ms scaled by how far the
// run's median reference time sits from kReferenceMs:
//   reported = measured * kReferenceMs / median(reference_ms).
// The kernel is the benchmark's own code, which a change to src/ does not
// touch: a faster program still reads faster, a slow phase of the host
// no longer does. README.md (Measurement notes) gives the spreads with
// and without the scaling.

/// Roughly the reference kernel's time on the reference host. It sets
/// only the scale of the reported times, so that they read close to wall
/// time there.
constexpr double kReferenceMs = 200.0;

/// A fixed single-threaded mix of dependent arithmetic and sorting:
/// xorshift feeding a multiply-add chain, then three sorts of 256 Ki
/// integers.
class ReferenceKernel {
 public:
  ReferenceKernel() : input_(std::size_t{1} << 18) {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t& v : input_) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      v = h;
    }
  }

  /// Runs the kernel and returns its wall time in ms. The result is the
  /// same on every call; a call that computes another one throws.
  double run_ms() {
    const auto t0 = Clock::now();
    std::uint64_t h = 88172645463325252ull;
    double x = 1.0;
    for (int i = 0; i < 24'000'000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      x = x * 0.9999999 + static_cast<double>(h & 1023) * 1e-9;
    }
    std::uint64_t picked = 0;
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<std::uint64_t> v = input_;
      std::sort(v.begin(), v.end());
      picked ^= v[v.size() / 2 + static_cast<std::size_t>(pass)];
    }
    const double ms = seconds_since(t0) * 1e3;
    const double result = x + static_cast<double>(picked % 1024);
    if (runs_++ == 0) result_ = result;
    if (result != result_) {
      throw std::runtime_error("the reference kernel's result changed");
    }
    return ms;
  }

 private:
  std::vector<std::uint64_t> input_;
  int runs_ = 0;
  double result_ = 0.0;  ///< the first run's
};

/// Splits the measured window into kSetUps slices (one if the window is
/// 0). Each slice sets up and then runs the workload's op at least once,
/// and again while the op, at its last duration, would end within the
/// slice. The reference kernel runs before every set-up and op. Stops at
/// the first failed op.
void run_untraced(Bench& b) {
  ReferenceKernel reference;
  std::vector<double>& reference_ms = b.ledger.samples["reference_ms"];
  const int slices = b.scale.seconds > 0.0 ? kSetUps : 1;
  const auto t0 = Clock::now();
  for (int slice = 1; slice <= slices && b.ledger.failed == 0; ++slice) {
    reference_ms.push_back(reference.run_ms());
    set_up(b);
    const double end = b.scale.seconds * slice / slices;
    double op_s = 0.0;
    do {
      const auto op_start = Clock::now();
      reference_ms.push_back(reference.run_ms());
      workload_op(b);
      op_s = seconds_since(op_start);
    } while (b.ledger.failed == 0 && seconds_since(t0) + op_s <= end);
  }
}

/// Adds the setup_s and op_ms samples: the wall-time samples scaled to
/// the reference kernel's speed, as described above.
void scale_to_reference(Ledger& ledger) {
  const auto ref = ledger.samples.find("reference_ms");
  if (ref == ledger.samples.end() || ref->second.empty()) return;
  const double scale = kReferenceMs / stats::median(ref->second);
  const auto add_scaled = [&](const char* scaled, const char* wall) {
    for (double v : ledger.samples[wall]) {
      ledger.samples[scaled].push_back(v * scale);
    }
  };
  add_scaled("setup_s", "setup_wall_s");
  add_scaled("op_ms", "op_wall_ms");
}

// --- traced run -----------------------------------------------------------

/// Runs `fn` with a fresh obs::Registry installed.
obs::MetricsSnapshot counted(const std::function<void()>& fn) {
  obs::Registry registry;
  {
    obs::ScopedMetrics on(&registry);
    fn();
  }
  return registry.snapshot();
}

/// Counters summed and gauges maxed over several snapshots.
using CounterTotals = std::map<std::string, double>;

void add_into(CounterTotals& totals, const obs::MetricsSnapshot& s) {
  for (const auto& c : s.counters) {
    totals[c.name] += static_cast<double>(c.count);
  }
  for (const auto& g : s.gauges) {
    const auto v = static_cast<double>(g.high_water);
    if (v > totals[g.name]) totals[g.name] = v;
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median duration (ms) of the spans named `name`: one query's share of
/// an op that repeats its query. NaN, reported as missing, if none.
double median_ms(const SpanLog& log, std::string_view name,
                 std::uint64_t op = SpanLog::kAnyOp) {
  const std::vector<double> ms = log.durations_ms(name, op);
  return ms.empty() ? std::nan("") : stats::median(ms);
}

/// The workload's last op: the sum of the last sample of each part.
double last_op_ms(const Bench& b) {
  double total = 0.0;
  for (const char* part : op_parts(b.def.op)) total += b.ledger.last(part);
  return total;
}

/// Every workload reports every per-layer metric, so a traced run goes
/// through every layer whatever the workload's op: a campaign, a resume
/// and a query pass, first untraced and then traced.
std::map<std::string, double> run_traced(Bench& b, SpanLog& log) {
  b.spans = &log;
  set_up(b);

  // Tracing off, for trace.overhead_pct.
  b.spans = nullptr;
  campaign_op(b);
  resume_op(b);
  b.ledger.attempt("open store", [&](Samples&) { open_fixture(b, b.store); });
  query_pass(b);
  const double untraced = last_op_ms(b);

  // The same ops traced: spans around each layer call and a registry
  // per op. Then the layer-by-layer decomposition of that campaign.
  b.spans = &log;
  const obs::MetricsSnapshot engine = counted([&] { campaign_op(b); });
  const double campaign_s = b.ledger.last("campaign_ms") / 1e3;
  resume_op(b);
  CounterTotals queries;
  add_into(queries, counted([&] { query_cold(b); }));
  add_into(queries, counted([&] { query_warm(b); }));
  const obs::MetricsSnapshot filtered = counted([&] { query_filtered(b); });
  add_into(queries, filtered);
  add_into(queries, counted([&] { query_analyses(b); }));
  add_into(queries, counted([&] { query_materialize(b); }));
  csv_roundtrip(b);
  const double traced = last_op_ms(b);
  decompose(b);
  core_analyses(b);

  CounterTotals eng;
  add_into(eng, engine);
  CounterTotals filt;
  add_into(filt, filtered);
  const std::vector<double> jobs = log.durations_ms("workloads.node_job");
  if (jobs.empty()) throw std::runtime_error("no node-job spans recorded");
  double busy_ms = 0.0;
  for (double ms : jobs) busy_ms += ms;
  const double busy_s = busy_ms / 1e3;
  const auto threads = static_cast<double>(b.pool.size());
  const double decisions = eng["dvfs.decisions"];
  std::size_t store_files = 0;
  for (const auto& entry : fs::directory_iterator(b.store)) {
    if (entry.is_regular_file()) ++store_files;
  }

  std::map<std::string, double> m;
  m["cluster.build_ms"] = log.total_ms("cluster.build");
  m["workloads.node_jobs"] = static_cast<double>(jobs.size());
  m["workloads.node_job_ms_p50"] = stats::quantile(jobs, 0.50);
  m["workloads.node_job_ms_p99"] = stats::quantile(jobs, 0.99);
  m["workloads.busy_s"] = busy_s;
  m["workloads.iterations"] = eng["runner.iterations"];
  m["gpu.dvfs_decisions"] = decisions;
  m["gpu.ladder_change_ratio"] =
      ratio(eng["dvfs.step_ups"] + eng["dvfs.step_downs"], decisions);
  m["gpu.ns_per_decision"] = ratio(busy_s * 1e9, decisions);
  m["thermal.rc_steps"] = eng["thermal.rc_steps"];
  m["engine.run_campaign_s"] = campaign_s;
  m["engine.parallel_efficiency"] = ratio(busy_s, threads * campaign_s);
  m["engine.overhead_s"] = campaign_s - busy_s / threads;
  m["engine.shards_written"] = eng["engine.shards_written"];
  m["engine.shard_bytes_written"] = eng["engine.shard_bytes_written"];
  m["engine.buckets_spilled"] = eng["engine.buckets_spilled"];
  m["engine.resident_bytes_peak"] = eng["engine.resident_bytes_peak"];
  m["engine.store_files"] = static_cast<double>(store_files);
  m["engine.store_read_ms"] = log.total_ms("engine.store_read");
  m["telemetry.frame_build_ms"] = log.total_ms("telemetry.frame_build");
  m["telemetry.shard_encode_ms"] = log.total_ms("telemetry.shard_encode");
  m["telemetry.shard_decode_ms"] = log.total_ms("telemetry.shard_decode");
  m["telemetry.merge_ms"] = log.total_ms("telemetry.merge");
  m["telemetry.csv_export_ms"] = log.total_ms("telemetry.csv_export");
  m["telemetry.csv_import_ms"] = log.total_ms("telemetry.csv_import");
  m["telemetry.csv_bytes"] = b.ledger.last("csv_bytes");
  m["query.open_ms"] = median_ms(log, "query.open", kOpQueryCold);
  m["query.plan_ms"] = median_ms(log, "query.plan", kOpQueryFiltered);
  m["query.decode_cold_ms"] = median_ms(log, "query.decode_cold");
  m["query.assemble_warm_ms"] = median_ms(log, "query.assemble_warm");
  m["query.materialize_ms"] = median_ms(log, "query.materialize");
  m["query.cache_hits"] = queries["query.cache_hits"];
  m["query.cache_misses"] = queries["query.cache_misses"];
  m["query.cache_hit_ratio"] =
      ratio(queries["query.cache_hits"],
            queries["query.cache_hits"] + queries["query.cache_misses"]);
  m["query.cache_bytes_peak"] = queries["query.cache_bytes_peak"];
  m["query.shards_scanned"] = filt["query.shards_scanned"];
  m["query.shards_skipped"] = filt["query.shards_skipped"];
  m["query.shard_skip_ratio"] =
      ratio(filt["query.shards_skipped"],
            filt["query.shards_scanned"] + filt["query.shards_skipped"]);
  m["core.variability_ms"] = log.total_ms("core.variability");
  m["core.correlate_ms"] = log.total_ms("core.correlate");
  m["core.flags_ms"] = log.total_ms("core.flags");
  m["core.drift_ms"] = log.total_ms("core.drift");
  m["core.impact_ms"] = log.total_ms("core.impact");
  m["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0;
  return m;
}

// --- reporting ------------------------------------------------------------

struct Reported {
  const MetricDef* def = nullptr;
  std::size_t n = 0;  ///< 0: the metric was not measured
  double value = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::vector<double> samples;
};

/// Each of `defs` summarized over the ledger's samples; n = 0 where it
/// has none.
std::vector<Reported> summarize(const Ledger& ledger,
                                std::span<const MetricDef> defs) {
  std::vector<Reported> out;
  for (const MetricDef& d : defs) {
    Reported r;
    r.def = &d;
    const auto it = ledger.samples.find(d.name);
    if (it != ledger.samples.end() && !it->second.empty()) {
      const std::vector<double>& xs = it->second;
      r.n = xs.size();
      r.value = stats::median(xs);
      r.p25 = stats::quantile(xs, 0.25);
      r.p75 = stats::quantile(xs, 0.75);
      r.samples = xs;
    }
    out.push_back(r);
  }
  return out;
}

std::vector<Reported> per_layer_results(
    const std::map<std::string, double>& layer) {
  std::vector<Reported> out;
  for (const MetricDef& d : kPerLayer) {
    Reported r;
    r.def = &d;
    const auto it = layer.find(d.name);
    if (it != layer.end() && std::isfinite(it->second)) {
      r.n = 1;
      r.value = r.p25 = r.p75 = it->second;
    }
    out.push_back(r);
  }
  return out;
}

void print_table(std::ostream& out, const std::vector<Reported>& rows,
                 double error_rate) {
  char line[160];
  for (const Reported& r : rows) {
    if (r.n == 0) {
      std::snprintf(line, sizeof(line), "  %-28s %14s %-6s\n", r.def->name,
                    "missing", r.def->unit);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-28s %14.4f %-6s n=%zu  IQR %.4f\n", r.def->name,
                    r.value, r.def->unit, r.n, r.p75 - r.p25);
    }
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %-28s %14.4f %-6s\n", "error_rate",
                error_rate, "ratio");
  out << line;
}

struct HostFacts {
  std::size_t nproc = std::thread::hardware_concurrency();
  std::size_t threads = 0;
  std::string compiler = compiler_name();
  std::string build_type = GPUVAR_E2E_BUILD_TYPE;
  std::string simd = stats::kernels::backend_name(
      stats::kernels::active_backend());
  std::uint64_t seed = 0;
};

void write_results_json(std::ostream& out, const Args& args,
                        const HostFacts& host, const Ledger& ledger,
                        double error_rate, bool correct,
                        const std::vector<Reported>& rows) {
  out << "{\n  \"workload\": " << quoted(args.workload)
      << ",\n  \"mode\": \""
      << (args.trace_path.empty() ? "untraced" : "traced") << "\""
      << ",\n  \"smoke\": " << (args.smoke ? "true" : "false")
      << ",\n  \"host\": {\"nproc\": " << host.nproc
      << ", \"threads\": " << host.threads
      << ", \"compiler\": " << quoted(host.compiler)
      << ", \"build_type\": " << quoted(host.build_type)
      << ", \"simd_backend\": " << quoted(host.simd)
      << ", \"seed\": " << host.seed << "}"
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << ledger.attempted
      << ",\n  \"failed\": " << ledger.failed
      << ",\n  \"error_rate\": " << number(error_rate)
      << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < ledger.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(ledger.errors[i]);
  }
  out << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Reported& r = rows[i];
    out << (i == 0 ? "\n" : ",\n") << "    " << quoted(r.def->name)
        << ": {\"value\": " << number(r.value)
        << ", \"unit\": " << quoted(r.def->unit) << ", \"n\": " << r.n
        << ", \"p25\": " << number(r.p25) << ", \"p75\": " << number(r.p75)
        << ", \"samples\": [";
    for (std::size_t k = 0; k < r.samples.size(); ++k) {
      out << (k == 0 ? "" : ", ") << number(r.samples[k]);
    }
    out << "]}";
  }
  out << "\n  }\n}\n";
}

int run(const std::vector<std::string>& argv) {
  const std::optional<Args> args = parse_args(argv, std::cerr);
  if (!args) {
    std::cerr << kUsage;
    return 2;
  }
  if (!kReleaseBuild) {
    std::cerr << "gpuvar_e2e: refusing to time a " << GPUVAR_E2E_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release "
                 "(optimised, NDEBUG)\n";
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args->workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "unknown workload " << args->workload << "\n" << kUsage;
    return 2;
  }

  Scale scale;
  scale.coverage = def->coverage;
  const bool traced = !args->trace_path.empty();
  scale.seconds = args->seconds;
  if (args->smoke) {
    scale.coverage = 0.02;
    scale.warmup_coverage = 0.01;
    scale.seconds = 0.0;
  }
  Bench b(*def, scale, args->seed, args->threads, args->work_dir);
  HostFacts host;
  host.threads = b.pool.size();
  host.seed = args->seed;
  std::cout << "gpuvar_e2e " << def->name << " seed " << args->seed << ": "
            << host.threads << " threads of " << host.nproc << ", "
            << host.compiler << ", " << host.build_type << ", simd "
            << host.simd << (traced ? ", traced" : "")
            << (args->smoke ? ", smoke" : "") << "\n";

  SpanLog log;
  std::map<std::string, double> layer;
  try {
    if (traced) {
      layer = run_traced(b, log);
    } else {
      run_untraced(b);
      scale_to_reference(b.ledger);
    }
  } catch (const std::exception& e) {
    ++b.ledger.attempted;
    ++b.ledger.failed;
    b.ledger.errors.push_back(e.what());
  }
  b.ledger.samples["peak_rss_mb"].push_back(peak_rss_mb());
  if (traced) {
    std::ofstream trace(args->trace_path);
    log.write_json(trace);
  }

  const std::vector<Reported> rows =
      traced ? per_layer_results(layer) : summarize(b.ledger, kEndToEnd);
  bool measured = true;
  for (const Reported& r : rows) measured = measured && r.n > 0;
  // The table and the results file add the details this workload timed.
  std::vector<Reported> shown = rows;
  if (!traced) {
    for (const Reported& r : summarize(b.ledger, kDetails)) {
      if (r.n > 0) shown.push_back(r);
    }
  }
  const double error_rate =
      ratio(static_cast<double>(b.ledger.failed),
            static_cast<double>(b.ledger.attempted));
  const bool correct =
      b.ledger.attempted > 0 && b.ledger.failed == 0 && measured;
  for (const std::string& e : b.ledger.errors) {
    std::cerr << "gpuvar_e2e: " << e << "\n";
  }

  print_table(std::cout, shown, error_rate);
  {
    std::ofstream json(args->json_path);
    write_results_json(json, *args, host, b.ledger, error_rate, correct,
                       shown);
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << b.ledger.attempted
            << ", \"failed\": " << b.ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << quoted(rows[i].def->name)
              << ": {\"value\": " << number(rows[i].value)
              << ", \"unit\": " << quoted(rows[i].def->unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace gpuvar::e2e

int main(int argc, char** argv) {
  return gpuvar::e2e::run(std::vector<std::string>(argv + 1, argv + argc));
}
