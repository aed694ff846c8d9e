#include "core/cli.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/bytesize.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/flagging.hpp"
#include "core/compare.hpp"
#include "core/drift.hpp"
#include "core/markdown_report.hpp"
#include "core/projection.hpp"
#include "core/report.hpp"
#include "core/variability.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/export.hpp"
#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "core/correlate.hpp"
#include "core/user_impact.hpp"
#include "gpu/sku.hpp"
#include "query/dataset.hpp"
#include "query/source.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"
#include "workloads/workload.hpp"

namespace gpuvar::cli {

namespace {

constexpr ClusterEntry kClusters[] = {
    {"cloudlab", "NSF CloudLab, 8x V100 SXM2 (the paper's testbed)", false,
     +[] { return cloudlab_spec(); }},
    {"longhorn", "TACC Longhorn, 416x V100, air-cooled", false,
     +[] { return longhorn_spec(); }},
    {"frontera", "TACC Frontera RTX partition", false,
     +[] { return frontera_spec(); }},
    {"vortex", "LLNL Vortex, V100, water-cooled", false,
     +[] { return vortex_spec(); }},
    {"summit", "ORNL Summit sample (2 nodes/column)", false,
     +[] { return summit_spec(0x5077, 8, 29, 2, 6); }},
    {"summit-full", "ORNL Summit at full scale (18 nodes/column)", true,
     +[] { return summit_spec(0x5077, 8, 29, 18, 6); }},
    {"corona", "LLNL Corona, AMD MI60", false, +[] { return corona_spec(); }},
};

constexpr WorkloadEntry kWorkloads[] = {
    {"sgemm", "dense matrix multiply, compute-bound", false, 100,
     +[](int it) { return sgemm_workload(25536, it); }},
    {"sgemm-amd", "SGEMM sized for MI60 memory", true, 100,
     +[](int it) { return sgemm_workload(24576, it); }},
    {"resnet-multi", "ResNet-50 training, all GPUs per node", false, 500,
     +[](int it) { return resnet50_multi_workload(it); }},
    {"resnet-single", "ResNet-50 training, one GPU", false, 500,
     +[](int it) { return resnet50_single_workload(it); }},
    {"bert", "BERT fine-tuning", false, 250,
     +[](int it) { return bert_workload(it); }},
    {"lammps", "LAMMPS molecular dynamics", false, 10,
     +[](int it) { return lammps_workload(it); }},
    {"pagerank", "PageRank, memory-bound", false, 50,
     +[](int it) { return pagerank_workload(it); }},
};

/// "try one of a, b, c" suffix for unknown-name errors, from the
/// visible rows of either registry.
template <typename Entry>
std::string try_one_of(std::span<const Entry> entries) {
  std::string out = ", try one of ";
  bool first = true;
  for (const auto& e : entries) {
    if (e.hidden) continue;
    if (!first) out += ", ";
    out += e.name;
    first = false;
  }
  return out;
}

}  // namespace

std::span<const ClusterEntry> cluster_registry() { return kClusters; }
std::span<const WorkloadEntry> workload_registry() { return kWorkloads; }

ClusterSpec cluster_by_name(const std::string& name) {
  for (const auto& e : kClusters) {
    if (name == e.name) return e.make();
  }
  throw std::invalid_argument("unknown cluster: " + name +
                              try_one_of(cluster_registry()));
}

WorkloadSpec workload_by_name(const std::string& name, int iterations) {
  for (const auto& e : kWorkloads) {
    if (name == e.name) {
      return e.make(iterations > 0 ? iterations : e.default_iterations);
    }
  }
  throw std::invalid_argument("unknown workload: " + name +
                              try_one_of(workload_registry()));
}

namespace {

// ---------------------------------------------------------------------------
// Per-command flag tables. Every flag a command accepts appears here
// exactly once; parse() rejects anything else with a suggestion list
// and usage() renders these same rows, so the tables cannot drift from
// the behavior.

constexpr FlagSpec kRunFlags[] = {
    {"cluster", "NAME", "cluster model (default cloudlab)"},
    {"workload", "NAME", "workload model (default sgemm)"},
    {"runs", "N", "runs per GPU"},
    {"reps", "N", "iteration/repetition override"},
    {"coverage", "F", "fraction of nodes measured"},
    {"power-limit", "W", "power cap override"},
    {"checkpoint", "DIR", "checkpoint/resume campaign state here"},
    {"shard-budget", "BYTES[K|M|G]|unlimited",
     "in-memory frame budget before spilling"},
    {"sweep", "day|power", "run a campaign sweep"},
    {"power-caps", "W1,W2,...", "cap list for --sweep power"},
    {"out", "FILE.csv", "write a results CSV"},
    {"report", "FILE.md", "write a markdown report"},
    {"summary", "FILE", "write a campaign summary"},
    {"title", "T", "report title"},
    {"trace", "FILE", "write a Chrome trace"},
    {"metrics", "FILE", "write a metrics dump"},
};

constexpr FlagSpec kAnalyzeFlags[] = {
    {"analysis", "NAME",
     "variability|correlate|flags|drift|impact|compare|groups|project|report"
     " (default variability)"},
    {"where", "F=LO..HI,...",
     "row filter on node/gpu/day/cabinet/row/col ranges"},
    {"against", "SRC", "baseline (before) store or CSV for compare"},
    {"group", "cabinet|node|row", "groups breakdown key (default cabinet)"},
    {"slowdown-temp", "T", "SKU thermal-slowdown threshold, Celsius"},
    {"target", "N", "projected cluster size (project)"},
    {"title", "T", "report title"},
    {"threads", "N",
     "store scan and analysis threads, 1..256 (default: shared pool)"},
    {"materialize", nullptr,
     "merge the full store first (reference path for byte-comparison)"},
};

/// The analyze flags that only a checkpoint-store SRC can honour.
constexpr const char* kStoreOnlyFlags[] = {"threads", "materialize"};

/// The most scan threads `analyze --threads` may ask for: a typo must
/// fail as a bad value, not ask the OS for millions of threads.
constexpr int kMaxScanThreads = 256;

struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const {
    return options.find(key) != options.end();
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// A given flag's value as a number; text that is not one is an error
  /// naming the flag.
  double number(const std::string& key) const {
    const std::string text = get(key, "");
    double v = 0.0;
    if (!parse_double(text, v)) {
      throw std::invalid_argument("not a number: '" + text + "' for --" + key);
    }
    return v;
  }
  /// A finite number flag: NaN and infinities are errors naming the
  /// flag, never a silently disabled setting.
  double get_num(const std::string& key, double fallback) const {
    if (!has(key)) return fallback;
    const double v = number(key);
    if (!std::isfinite(v)) {
      throw std::invalid_argument("--" + key + " needs a finite number, got '" +
                                  get(key, "") + "'");
    }
    return v;
  }
  /// An integer flag in [lo, hi]. NaN, fractional and out-of-range
  /// values are errors naming the flag, never a cast of an arbitrary
  /// double.
  int get_int(const std::string& key, int fallback, int lo,
              int hi = std::numeric_limits<int>::max()) const {
    if (!has(key)) return fallback;
    const double v = number(key);
    if (!(v >= lo && v <= hi && v == std::floor(v))) {
      throw std::invalid_argument("--" + key + " needs an integer in [" +
                                  format_int(lo) + ", " + format_int(hi) +
                                  "], got '" + get(key, "") + "'");
    }
    return static_cast<int>(v);
  }
};

/// ", try one of --a, --b" over a command's flag table; a takes-no-flags
/// note when the table is empty.
std::string try_one_of_flags(const CommandSpec& cmd) {
  if (cmd.flags.empty()) {
    return std::string("; '") + cmd.name + "' takes no flags";
  }
  std::string out = ", try one of ";
  bool first = true;
  for (const auto& f : cmd.flags) {
    if (!first) out += ", ";
    out += "--";
    out += f.name;
    first = false;
  }
  return out;
}

/// Splits argv after the command name into positionals and flags,
/// validated against the command's flag table.
ParsedArgs parse(const std::vector<std::string>& args, std::size_t from,
                 const CommandSpec& cmd) {
  ParsedArgs out;
  for (std::size_t i = from; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      out.positional.push_back(a);
      continue;
    }
    const std::string key = a.substr(2);
    const FlagSpec* spec = nullptr;
    for (const auto& f : cmd.flags) {
      if (key == f.name) spec = &f;
    }
    if (spec == nullptr) {
      throw std::invalid_argument("unknown flag: " + a + " for '" +
                                  cmd.name + "'" + try_one_of_flags(cmd));
    }
    if (spec->value_hint == nullptr) {
      out.options[key] = "";
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + a);
    }
    out.options[key] = args[++i];
  }
  return out;
}

/// Renders the usage text from the command table: one wrapped line per
/// command, flags in table order.
void usage(std::ostream& err) {
  err << "usage:\n";
  for (const auto& cmd : command_registry()) {
    std::string line = std::string("  gpuvar ") + cmd.name;
    if (cmd.args_hint[0] != '\0') {
      line += ' ';
      line += cmd.args_hint;
    }
    const std::string indent(line.size() > 24 ? 14 : line.size() + 1, ' ');
    for (const auto& f : cmd.flags) {
      std::string item = std::string(" [--") + f.name;
      if (f.value_hint != nullptr) {
        item += ' ';
        item += f.value_hint;
      }
      item += ']';
      if (line.size() + item.size() > 78) {
        err << line << "\n";
        line = indent;
      }
      line += item;
    }
    err << line << "\n";
  }
}

int cmd_clusters(const ParsedArgs&, std::ostream& out) {
  for (const auto& e : cluster_registry()) {
    if (!e.hidden) out << e.name << "\t" << e.description << "\n";
  }
  return 0;
}

int cmd_workloads(const ParsedArgs&, std::ostream& out) {
  for (const auto& e : workload_registry()) {
    if (!e.hidden) out << e.name << "\t" << e.description << "\n";
  }
  return 0;
}

/// "out.csv" + job "day-3" -> "out-day-3.csv" (sweep artifact naming).
std::string job_artifact_path(const std::string& path,
                              const std::string& job) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "-" + job;
  }
  return path.substr(0, dot) + "-" + job + path.substr(dot);
}

void write_campaign_artifacts(const ParsedArgs& args, std::ostream& out,
                              const std::string& cluster_name,
                              const CampaignResult& result,
                              const std::string& job) {
  const auto open_artifact = [&](const std::string& key,
                                 std::ofstream& file) {
    std::string path = args.get(key, "");
    if (path.empty()) return path;
    if (!job.empty()) path = job_artifact_path(path, job);
    file.open(path);
    if (!file.good()) {
      throw std::runtime_error("cannot write " + path);
    }
    return path;
  };
  std::ofstream csv_file;
  const std::string csv_path = open_artifact("out", csv_file);
  if (!csv_path.empty()) {
    export_frame_csv(csv_file, cluster_name, result.frame);
    out << "wrote " << result.frame.size() << " rows to " << csv_path
        << "\n";
  }
  std::ofstream report_file;
  const std::string report_path = open_artifact("report", report_file);
  if (!report_path.empty()) {
    MarkdownReportOptions opts;
    opts.title = args.get("title", "Variability campaign report");
    write_markdown_report(report_file, result.frame, opts);
    out << "report -> " << report_path << "\n";
  }
  std::ofstream summary_file;
  const std::string summary_path = open_artifact("summary", summary_file);
  if (!summary_path.empty()) {
    write_campaign_summary(summary_file, result);
    out << "summary -> " << summary_path << "\n";
  }
}

int cmd_run(const ParsedArgs& args, std::ostream& out) {
  // Observability sinks go in before the cluster is built so fault
  // injections during construction land in the trace too.
  const std::string trace_path = args.get("trace", "");
  const std::string metrics_path = args.get("metrics", "");
  obs::TraceSink sink;
  obs::Registry registry;
  std::optional<obs::ScopedTrace> trace_guard;
  std::optional<obs::ScopedMetrics> metrics_guard;
  if (!trace_path.empty()) trace_guard.emplace(&sink);
  if (!metrics_path.empty()) metrics_guard.emplace(&registry);
  obs::LaneScope campaign_lane(0, "campaign");
  const auto write_obs = [&] {
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      if (!file.good()) {
        throw std::runtime_error("cannot write " + trace_path);
      }
      obs::write_chrome_trace(file, sink);
      out << "trace: " << sink.event_count() << " events across "
          << sink.lane_count() << " lanes -> " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      const auto snap = registry.snapshot();
      std::ofstream file(metrics_path);
      if (!file.good()) {
        throw std::runtime_error("cannot write " + metrics_path);
      }
      obs::write_metrics_text(file, snap);
      out << "metrics: " << snap.size() << " series -> " << metrics_path
          << "\n";
    }
  };

  const std::string cluster_name = args.get("cluster", "cloudlab");
  std::string workload_name = args.get("workload", "sgemm");
  Cluster cluster(cluster_by_name(cluster_name));
  if (workload_name == "sgemm" && cluster.sku().vendor == Vendor::kAmd) {
    workload_name = "sgemm-amd";
  }
  auto workload = workload_by_name(workload_name, args.get_int("reps", 0, 1));

  ExperimentConfig cfg =
      default_config(cluster, workload, args.get_int("runs", 2, 1));
  cfg.node_coverage = args.get_num("coverage", 1.0);
  const double power_limit = args.get_num("power-limit", 0.0);
  if (power_limit < 0.0) {
    throw std::invalid_argument("--power-limit needs a cap >= 0 W, got '" +
                                args.get("power-limit", "") + "'");
  }
  cfg.run_options.power_limit_override = Watts{power_limit};

  CampaignOptions options;
  options.checkpoint_dir = args.get("checkpoint", "");
  options.shard_budget_bytes =
      parse_byte_size(args.get("shard-budget", "unlimited"), "--shard-budget");
  if (options.checkpoint_dir.empty() &&
      options.shard_budget_bytes != kUnlimitedShardBudget) {
    throw std::invalid_argument(
        "a bounded shard budget needs a checkpoint directory to spill into "
        "(--shard-budget " + args.get("shard-budget", "") +
        " needs --checkpoint DIR)");
  }

  const std::string sweep = args.get("sweep", "");
  if (!sweep.empty()) {
    std::vector<CampaignJob> jobs;
    if (sweep == "day") {
      jobs = day_of_week_sweep(cfg);
    } else if (sweep == "power") {
      std::vector<double> caps;
      const std::string caps_text = args.get("power-caps", "");
      if (caps_text.empty()) {
        throw std::invalid_argument(
            "--sweep power needs --power-caps W1,W2,...");
      }
      std::size_t start = 0;
      while (start <= caps_text.size()) {
        const std::size_t comma = caps_text.find(',', start);
        const std::string item =
            caps_text.substr(start, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - start);
        double w = 0.0;
        if (!parse_double(item, w)) {
          throw std::invalid_argument("bad power cap '" + item +
                                      "' in --power-caps");
        }
        caps.push_back(w);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      jobs = power_cap_sweep(cfg, caps);
    } else {
      throw std::invalid_argument("unknown --sweep '" + sweep +
                                  "', try day or power");
    }
    out << "sweep: " << jobs.size() << " campaigns of " << workload.name
        << " on " << cluster.name() << "\n";
    const auto results = run_campaign_sweep(cluster, jobs, options);
    for (const auto& r : results) {
      out << "  " << r.name << ": " << r.result.frame.size() << " rows, "
          << r.result.gpus_measured << " GPUs";
      if (r.result.stats.buckets_restored > 0) {
        out << " (" << r.result.stats.buckets_restored
            << " buckets restored from checkpoint)";
      }
      out << "\n";
      write_campaign_artifacts(args, out, cluster.name(), r.result, r.name);
    }
    write_obs();
    return 0;
  }

  out << "campaign: " << workload.name << " on " << cluster.name() << " ("
      << cluster.size() << " GPUs)\n";
  const auto result = run_campaign(cluster, cfg, options);
  out << "rows " << result.frame.size() << ", gpus "
      << result.gpus_measured << ", nodes " << result.nodes_measured
      << "\n";
  if (result.stats.buckets_restored > 0) {
    out << "resumed: " << result.stats.buckets_restored << " of "
        << result.stats.buckets_total << " buckets restored, "
        << result.stats.buckets_run << " run";
    if (result.stats.buckets_rerun_stale > 0) {
      out << " (" << result.stats.buckets_rerun_stale
          << " stale shards re-run)";
    }
    out << "\n";
  }
  print_section(out, "variability");
  print_variability_table(out, analyze_variability(result.frame));
  write_obs();
  write_campaign_artifacts(args, out, cluster.name(), result, "");
  return 0;
}

/// Parses a --where value: comma-separated FIELD=RANGE terms, RANGE
/// being "N", "LO..HI", "LO.." or "..HI" (inclusive bounds).
query::Predicate parse_predicate(const std::string& text) {
  query::Predicate where;
  std::vector<const query::FieldRange*> seen;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string term =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    const std::size_t eq = term.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad --where term '" + term +
                                  "' (want FIELD=LO..HI)");
    }
    const std::string field = term.substr(0, eq);
    const std::string range = term.substr(eq + 1);
    query::FieldRange* r = nullptr;
    if (field == "node") r = &where.node;
    if (field == "gpu") r = &where.gpu_index;
    if (field == "day") r = &where.day;
    if (field == "cabinet") r = &where.cabinet;
    if (field == "row") r = &where.row;
    if (field == "col") r = &where.column;
    if (r == nullptr) {
      throw std::invalid_argument(
          "unknown --where field '" + field +
          "', try one of node, gpu, day, cabinet, row, col");
    }
    if (std::find(seen.begin(), seen.end(), r) != seen.end()) {
      throw std::invalid_argument("repeated --where field '" + field +
                                  "' (give each field one range)");
    }
    seen.push_back(r);
    const auto bound = [&](const std::string& s) {
      long long v = 0;
      if (!parse_int(s, v)) {
        throw std::invalid_argument("bad --where range '" + range + "' for " +
                                    field);
      }
      return static_cast<std::int64_t>(v);
    };
    const std::size_t dots = range.find("..");
    if (dots == std::string::npos) {
      r->lo = r->hi = bound(range);
    } else {
      const std::string lo = range.substr(0, dots);
      const std::string hi = range.substr(dots + 2);
      if (!lo.empty()) r->lo = bound(lo);
      if (!hi.empty()) r->hi = bound(hi);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return where;
}

/// One analysis input. A checkpoint store streams through a
/// Dataset-backed Source unless --materialize asked for a frame; a
/// results CSV is always a frame. Either way the Source applies
/// --where, so the streamed and frame paths share one row filter.
struct Input {
  std::optional<query::Dataset> store;
  std::optional<RecordFrame> frame;
  query::Predicate where;

  query::Source source() const {
    return frame ? query::Source(*frame, where) : query::Source(*store, where);
  }
};

/// Opens SRC (a store directory or a results CSV). `summary`, when
/// given, receives the one source-summary line.
Input open_input(const std::string& path, const query::DatasetOptions& dopts,
                 const query::Predicate& where, bool materialize,
                 std::ostream* summary) {
  Input in;
  in.where = where;
  if (std::filesystem::is_directory(path)) {
    in.store.emplace(query::Dataset::open(path, dopts));
    if (summary != nullptr) {
      *summary << "dataset: " << in.store->shards().size() << " shards, "
               << in.store->total_rows() << " rows"
               << (in.store->complete() ? "" : " (incomplete campaign)")
               << "\n";
    }
    if (materialize) in.frame.emplace(in.store->materialize());
    return in;
  }
  std::ifstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open " + path +
                             " (neither a checkpoint directory nor a "
                             "readable results CSV)");
  }
  RecordFrame all;
  try {
    all = import_results_frame(file);
  } catch (const std::invalid_argument& e) {
    // "results.csv line 17: ..." or "results.csv: empty CSV input".
    const std::string what = e.what();
    throw std::invalid_argument(
        path + (what.starts_with("line ") ? " " : ": ") + what);
  }
  if (all.empty()) throw std::runtime_error("no records in " + path);
  if (summary != nullptr) *summary << "loaded " << all.size() << " records\n";
  in.frame.emplace(std::move(all));
  return in;
}

/// The analyze options that shape an analysis's output, parsed and
/// validated once before any data is read.
struct AnalyzeSettings {
  std::string group_name;
  GroupBy group = GroupBy::kCabinet;
  Celsius slowdown_temp{1e9};
  int target = 0;  ///< 0 = not given
  std::string title;
};

AnalyzeSettings analyze_settings(const ParsedArgs& args,
                                 const std::string& analysis) {
  AnalyzeSettings s;
  s.group_name = args.get("group", "cabinet");
  if (s.group_name == "node") {
    s.group = GroupBy::kNode;
  } else if (s.group_name == "row") {
    s.group = GroupBy::kRow;
  } else if (s.group_name != "cabinet") {
    throw std::invalid_argument("unknown --group '" + s.group_name +
                                "', try one of cabinet, node, row");
  }
  s.slowdown_temp = Celsius{args.get_num("slowdown-temp", 1e9)};
  s.target = args.get_int("target", 0, 2);
  if (analysis == "project" && s.target <= 0) {
    throw std::invalid_argument("project needs --target N");
  }
  s.title = args.get("title", "Variability campaign report");
  return s;
}

/// What one analysis reads: the --where-filtered rows of SRC and, if
/// given, the --against baseline.
struct AnalysisContext {
  const AnalyzeSettings& settings;
  const query::Source& source;
  const query::Source* against;
};

void print_comparison(std::ostream& out, const CampaignComparison& cmp) {
  out << "matched " << cmp.matched_gpus << " GPUs (" << cmp.only_before
      << " only-before, " << cmp.only_after << " only-after)\n"
      << "population shift: " << cmp.median_delta_pct << "% (noise floor "
      << cmp.noise_floor_pct << "%)\n";
  if (cmp.significant.empty()) {
    out << "no significant per-GPU changes\n";
  }
  for (const auto& d : cmp.significant) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-20s %+7.2f%%  (%.0f -> %.0f ms, %.0f -> %.0f W, "
                  "%.0f -> %.0f C)\n",
                  d.name.c_str(), d.delta_pct, d.before_ms, d.after_ms,
                  d.before_power_w, d.after_power_w, d.before_temp_c,
                  d.after_temp_c);
    out << buf;
  }
}

void show_variability(const AnalysisContext& c, std::ostream& out) {
  print_section(out, "variability");
  print_variability_table(out, analyze_variability(c.source));
}

void show_correlate(const AnalysisContext& c, std::ostream& out) {
  print_section(out, "correlations");
  print_correlation_table(out, analyze_correlation(c.source));
}

void show_flags(const AnalysisContext& c, std::ostream& out) {
  FlagOptions opts;
  opts.slowdown_temp = c.settings.slowdown_temp;
  print_section(out, "operator early-warning report");
  print_flags(out, analyze_flags(c.source, opts));
}

void show_drift(const AnalysisContext& c, std::ostream& out) {
  // Drift needs a history: at least one GPU with multiple runs.
  bool has_history = false;
  const auto groups = group_rows_by_gpu(c.source.frame());
  for (std::uint32_t id : groups.order) {
    if (groups.offsets[id + 1] - groups.offsets[id] >= 2) has_history = true;
  }
  if (!has_history) {
    throw std::runtime_error("drift needs repeated runs per GPU (a history)");
  }
  out << "run noise sigma: " << estimate_run_noise_ms(c.source) << " ms\n";
  const auto flags = analyze_drift(c.source);
  if (flags.empty()) {
    out << "no drift detected\n";
  }
  for (const auto& f : flags) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  DRIFT %-20s %+6.2f%% over %d runs (%.1f sigmas)\n",
                  f.name.c_str(), f.drift_pct, f.runs, f.noise_sigmas);
    out << buf;
  }
}

void show_impact(const AnalysisContext& c, std::ostream& out) {
  print_section(out, "user impact");
  for (const auto& ji : analyze_user_impact(c.source)) {
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "  %2d-GPU jobs: expected %.3fx, p95 %.3fx, "
                  "P(any slow) %.2f\n",
                  ji.gpus_per_job, ji.expected_slowdown, ji.p95_slowdown,
                  ji.p_any_slow);
    out << buf;
  }
}

void show_compare(const AnalysisContext& c, std::ostream& out) {
  if (c.against == nullptr) {
    throw std::invalid_argument("--analysis compare needs --against SRC");
  }
  if (c.against->empty()) {
    throw std::runtime_error("no rows match the --where filter in --against");
  }
  // --against is the baseline (before); SRC is the campaign under
  // study (after), so a positive shift means SRC got slower.
  print_comparison(out, analyze_compare(*c.against, c.source));
}

void show_groups(const AnalysisContext& c, std::ostream& out) {
  show_variability(c, out);
  show_correlate(c, out);
  print_section(out, "performance by " + c.settings.group_name);
  print_group_boxes(out, c.source, Metric::kPerf, c.settings.group);
}

void show_project(const AnalysisContext& c, std::ostream& out) {
  const auto proj = project_to_cluster_size(
      c.source, static_cast<std::size_t>(c.settings.target));
  out << "measured variation at " << proj.source_gpus
      << " GPUs: " << proj.source_variation_pct << "%\n"
      << "projected variation at " << proj.target_gpus
      << " GPUs: " << proj.projected_variation_pct << "%\n";
}

void show_report(const AnalysisContext& c, std::ostream& out) {
  MarkdownReportOptions opts;
  opts.title = c.settings.title;
  opts.slowdown_temp = c.settings.slowdown_temp;
  write_markdown_report(out, c.source, opts);
}

/// The analysis registry behind --analysis: dispatch and the
/// unknown-name suggestion list come from these rows.
struct AnalysisEntry {
  const char* name;
  void (*show)(const AnalysisContext&, std::ostream&);
};

constexpr AnalysisEntry kAnalyses[] = {
    {"variability", show_variability},
    {"correlate", show_correlate},
    {"flags", show_flags},
    {"drift", show_drift},
    {"impact", show_impact},
    {"compare", show_compare},
    {"groups", show_groups},
    {"project", show_project},
    {"report", show_report},
};

const AnalysisEntry& analysis_by_name(const std::string& name) {
  std::string names;
  for (const auto& a : kAnalyses) {
    if (name == a.name) return a;
    names += names.empty() ? "" : ", ";
    names += a.name;
  }
  throw std::invalid_argument("unknown --analysis '" + name +
                              "', try one of " + names);
}

int cmd_analyze(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.empty()) {
    throw std::invalid_argument(
        "analyze needs SRC (a checkpoint directory or a results CSV)");
  }
  const std::string& path = args.positional.front();
  const AnalysisEntry& analysis =
      analysis_by_name(args.get("analysis", "variability"));
  const AnalyzeSettings settings = analyze_settings(args, analysis.name);
  if (!std::filesystem::is_directory(path)) {
    for (const char* flag : kStoreOnlyFlags) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " applies only to a checkpoint store, "
                                    "not to the CSV " + path);
      }
    }
  }

  query::DatasetOptions dopts;
  std::optional<ThreadPool> pool;
  const int threads = args.get_int("threads", 0, 1, kMaxScanThreads);
  if (threads > 0) {
    pool.emplace(static_cast<std::size_t>(threads));
    dopts.pool = &*pool;
  }
  const query::Predicate where = parse_predicate(args.get("where", ""));

  // The streamed path and the --materialize reference path must print
  // byte-identical analysis output; only the source construction
  // differs. A report is a pure markdown document: no summary lines.
  const bool document = std::string(analysis.name) == "report";
  const bool materialize = args.has("materialize");
  const Input input =
      open_input(path, dopts, where, materialize, document ? nullptr : &out);
  std::optional<Input> base;
  std::optional<query::Source> against;
  if (args.has("against")) {
    base.emplace(open_input(args.get("against", ""), dopts, where,
                            materialize, nullptr));
    against.emplace(base->source());
  }
  const query::Source source = input.source();
  if (source.empty()) {
    throw std::runtime_error("no rows match the --where filter");
  }
  if (!document) out << "rows matched: " << source.size() << "\n";
  analysis.show({settings, source, against ? &*against : nullptr}, out);
  return 0;
}

/// The command registry: one row per subcommand, handlers bound to the
/// same specs the usage text and flag validation render from.
struct CommandEntry {
  CommandSpec spec;
  int (*run)(const ParsedArgs&, std::ostream&);
};

constexpr CommandEntry kCommands[] = {
    {{"clusters", "", "list the built-in cluster models", {}}, cmd_clusters},
    {{"workloads", "", "list the built-in workload models", {}},
     cmd_workloads},
    {{"run", "", "run a campaign (checkpoints, sweeps, artifacts)",
      kRunFlags},
     cmd_run},
    {{"analyze", "SRC", "analyze a checkpoint store or a results CSV",
      kAnalyzeFlags},
     cmd_analyze},
};

/// Spec-only view of kCommands, materialized once at startup so
/// command_registry can hand out a span over stable storage.
const std::vector<CommandSpec> kCommandSpecs = [] {
  std::vector<CommandSpec> out;
  out.reserve(std::size(kCommands));
  for (const auto& c : kCommands) out.push_back(c.spec);
  return out;
}();

}  // namespace

std::span<const CommandSpec> command_registry() { return kCommandSpecs; }

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty()) {
      usage(err);
      return 2;
    }
    const std::string& cmd = args.front();
    for (const auto& c : kCommands) {
      if (cmd == c.spec.name) return c.run(parse(args, 1, c.spec), out);
    }
    err << "unknown command: " << cmd << "\n";
    usage(err);
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gpuvar::cli
