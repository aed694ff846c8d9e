#include "pipeline.hpp"

#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "cluster/allocator.hpp"
#include "cluster/cluster.hpp"
#include "core/cli.hpp"
#include "core/correlate.hpp"
#include "core/drift.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/flagging.hpp"
#include "core/record.hpp"
#include "core/report.hpp"
#include "core/user_impact.hpp"
#include "core/variability.hpp"
#include "query/dataset.hpp"
#include "query/source.hpp"
#include "spans.hpp"
#include "telemetry/export.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/record.hpp"
#include "telemetry/run_result.hpp"
#include "telemetry/shard.hpp"
#include "workloads/runner.hpp"

namespace gpuvar::e2e {

namespace {

namespace fs = std::filesystem;

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "cannot open " + path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

query::DatasetOptions dataset_options(Bench& b) {
  query::DatasetOptions options;
  options.pool = &b.pool;
  return options;
}

CampaignOptions store_options(const Bench& b, const fs::path& dir) {
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  options.shard_budget_bytes = b.def.shard_budget_bytes;
  return options;
}

/// A new store directory under the work dir. No store a run writes is
/// deleted or overwritten (see make_work_dir).
fs::path fresh_store(Bench& b) {
  const fs::path path = b.work / ("store-" + std::to_string(b.stores_made++));
  check(!fs::exists(path), path.string() + " exists; use a new work dir");
  return path;
}

const QueryFixture& fixture_of(const Bench& b) {
  check(b.fixture.has_value(), "no query fixture (its store failed)");
  return *b.fixture;
}

// --- report texts: the byte-exact form the query checks compare -------

std::string text_of(const VariabilityReport& r) {
  std::ostringstream out;
  print_variability_table(out, r);
  out << r.records << " records, " << r.gpus << " GPUs\n";
  return out.str();
}

std::string text_of(const CorrelationReport& r) {
  std::ostringstream out;
  print_correlation_table(out, r);
  return out.str();
}

std::string text_of(const FlagReport& r) {
  std::ostringstream out;
  print_flags(out, r, r.gpus.size());
  return out.str();
}

std::string text_of(const std::vector<DriftFlag>& flags) {
  std::string out;
  char buf[256];
  for (const DriftFlag& f : flags) {
    std::snprintf(buf, sizeof(buf), "%zu %s %d %.17g %.17g %.17g %.17g\n",
                  f.gpu_index, f.name.c_str(), f.runs, f.baseline_ms,
                  f.recent_ewma_ms, f.drift_pct, f.noise_sigmas);
    out += buf;
  }
  return out;
}

std::string text_of(const std::vector<JobImpact>& table) {
  std::string out;
  char buf[160];
  for (const JobImpact& j : table) {
    std::snprintf(buf, sizeof(buf), "%d %.17g %.17g %.17g\n", j.gpus_per_job,
                  j.expected_slowdown, j.p95_slowdown, j.p_any_slow);
    out += buf;
  }
  return out;
}

/// The rows of `frame` a filtered query must return, selected row by
/// row as `gpuvar query --materialize --where` does.
RecordFrame select_where(const RecordFrame& frame,
                         const query::Predicate& where) {
  const auto ids = frame.gpu_ids();
  const auto days = frame.days_of_week();
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (where.matches(frame.gpu(ids[i]), days[i])) rows.push_back(i);
  }
  return frame.select(rows);
}

/// Rows a campaign must produce: a single-GPU workload runs on every GPU
/// of a node, a multi-GPU job on gpus_per_job of them; each runs
/// runs_per_gpu times.
std::size_t campaign_rows(const ExperimentConfig& config,
                          const std::vector<NodeAllocation>& allocations) {
  const int width = config.workload.gpus_per_job;
  std::size_t rows = 0;
  for (const NodeAllocation& a : allocations) {
    const std::size_t ranks =
        width == 1 ? a.gpu_indices.size() : static_cast<std::size_t>(width);
    rows += ranks * static_cast<std::size_t>(config.runs_per_gpu);
  }
  return rows;
}

/// Node window of the filtered query: the nodes of `span` consecutive
/// allocations, the first picked by the seed, where `span` keeps the
/// share of 100 in summit-full's 4,176 nodes. At full coverage that is
/// [k, k+99]; at a lower coverage the window is wider but still matches
/// the same number of shards for every seed, so the seed moves which
/// rows the query reads and not how many.
query::Predicate node_window(const std::vector<NodeAllocation>& allocations,
                             std::uint64_t seed) {
  const std::size_t n = allocations.size();
  const std::size_t span = std::max<std::size_t>(1, (n * 100 + 4175) / 4176);
  const std::uint64_t mixed = (seed + 1) * 0x9E3779B97F4A7C15ull;
  const std::size_t pick =
      static_cast<std::size_t>((mixed >> 32) % (n - span + 1));
  query::Predicate where;
  where.node.lo = allocations[pick].node;
  where.node.hi = allocations[pick + span - 1].node;
  return where;
}

/// Writes back the dirty pages of the work dir's filesystem, untimed,
/// so that a campaign does not share the disk with the writeback of the
/// stores and CSV files written before it.
void flush_disk(const Bench& b) {
  const int fd = ::open(b.work.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  check(fd >= 0, "cannot open " + b.work.string());
  const int rc = ::syncfs(fd);
  ::close(fd);
  check(rc == 0, "cannot sync " + b.work.string());
}

// Files and the cost of creating them. ext4 without a journal (the disk
// this benchmark was tuned on) will not reuse an inode deleted in the
// last 12 hours while its inode table block is cached, and it steps
// over each such inode whenever it looks for a free one. In a block
// group that held a deleted store, creating a shard file took 300 us
// instead of 20, so campaign times depended on what had been deleted
// before. Hence the benchmark deletes nothing it writes: at the end of
// a run it empties its files and leaves them in place, which gives the
// disk space back but keeps their inodes in use. And the work dir is
// marked as the top of a directory hierarchy (chattr +T), so that ext4
// puts each store in whichever group holds the fewest directories
// rather than next to the files of earlier runs or other programs.

/// Creates the work dir and marks it as described above, where the
/// filesystem supports the mark.
void make_work_dir(const fs::path& work) {
  fs::create_directories(work);
  const int fd = ::open(work.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  check(fd >= 0, "cannot open " + work.string());
  int flags = 0;
  if (::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0) {
    flags |= FS_TOPDIR_FL;
    (void)::ioctl(fd, FS_IOC_SETFLAGS, &flags);  // a hint; ignored elsewhere
  }
  ::close(fd);
}

/// Truncates every file under the work dir to zero bytes.
void empty_work_dir(const fs::path& work) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(work, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) fs::resize_file(it->path(), 0, ec);
  }
}

void check_campaign(Bench& b, const RecordFrame& frame, const fs::path& dir) {
  check(frame.size() == b.expected_rows,
        "campaign has " + std::to_string(frame.size()) + " rows, expected " +
            std::to_string(b.expected_rows));
  const std::uint64_t hash = hash_frame_shard(frame, 0);
  if (!b.frame_hash) b.frame_hash = hash;
  check(hash == *b.frame_hash,
        "campaign frame differs from the first rep of this seed");
  const RecordFrame stored =
      query::Dataset::open(dir.string(), dataset_options(b)).materialize();
  check(hash_frame_shard(stored, 0) == hash,
        "the store does not materialize to the campaign frame");
  if (std::string_view(b.def.app) == "sgemm") {
    // The paper reports 5-22% SGEMM performance variation across
    // clusters; a simulator change that leaves that band is wrong,
    // however fast it is.
    const double v =
        analyze_variability(query::Source(frame)).perf.variation_pct;
    check(v >= 5.0 && v <= 22.0, "sgemm perf variation " + std::to_string(v) +
                                     "% is outside the paper's 5-22% band");
  }
}

query::Dataset open_dataset(Bench& b, const fs::path& dir, std::uint64_t op) {
  Span span(b.spans, "query.open", op);
  return query::Dataset::open(dir.string(), dataset_options(b));
}

/// Pushdown and row matching happen on the first size() call.
void plan(const Bench& b, const query::Source& src, std::uint64_t op) {
  Span span(b.spans, "query.plan", op);
  check(src.size() > 0, "the query matches no rows");
}

/// First touch of the columns analyze_variability reads: assembly (and,
/// on a cold Dataset, shard decode) timed apart from the analysis.
void assemble(const Bench& b, const query::Source& src, const char* name,
              std::uint64_t op) {
  Span span(b.spans, name, op);
  for (Metric m : {Metric::kPerf, Metric::kFreq, Metric::kPower,
                   Metric::kTemp}) {
    (void)src.metric(m);
  }
  (void)src.gpu_ids();
}

VariabilityReport variability(const Bench& b, const query::Source& src,
                              std::uint64_t op) {
  Span span(b.spans, "query.analyze", op);
  return analyze_variability(src);
}

/// Runs `run` (timed), then `verify` of its result (untimed). Returns
/// the ms `run` took.
template <class Run, class Verify>
double timed_ms(Run run, Verify verify) {
  const auto t0 = Clock::now();
  const auto result = run();
  const double ms = seconds_since(t0) * 1e3;
  verify(result);
  return ms;
}

}  // namespace

void Ledger::attempt(const std::string& what,
                     const std::function<void(Samples&)>& op) {
  ++attempted;
  Samples samples_of_op;
  try {
    op(samples_of_op);
  } catch (const std::exception& e) {
    ++failed;
    errors.push_back(what + ": " + e.what());
    return;
  }
  for (auto& [metric, value] : samples_of_op) {
    samples[metric].push_back(value);
  }
}

double Ledger::last(const std::string& metric) const {
  const auto it = samples.find(metric);
  if (it == samples.end() || it->second.empty()) {
    throw std::runtime_error("no sample of " + metric);
  }
  return it->second.back();
}

Bench::Bench(const WorkloadDef& workload, const Scale& run_scale,
             std::uint64_t run_seed, std::size_t threads,
             std::filesystem::path work_dir)
    : def(workload),
      scale(run_scale),
      seed(run_seed),
      pool(threads),
      work(std::move(work_dir)),
      csv(work / "frame.csv") {
  make_work_dir(work);
  std::ofstream create(csv, std::ios::binary);
  check(create.good(), "cannot create " + csv.string());
}

Bench::~Bench() { empty_work_dir(work); }

std::vector<const char*> op_parts(Op op) {
  switch (op) {
    case Op::kCampaign:
      return {"campaign_ms"};
    case Op::kStoreCycle:
      return {"campaign_ms", "resume_ms"};
    case Op::kQueryPass:
      return {"query_cold_ms", "query_warm_ms", "query_filtered_ms",
              "analyses_ms",   "materialize_ms", "csv_roundtrip_ms"};
  }
  return {};
}

void set_up(Bench& b) {
  b.ledger.attempt("setup", [&](Samples& s) {
    Span op(b.spans, "op.setup", kOpSetup);
    flush_disk(b);
    const auto t0 = Clock::now();
    b.cluster.reset();
    {
      Span span(b.spans, "cluster.build", kOpSetup);
      b.cluster = std::make_unique<Cluster>(summit_spec(0x5077, 8, 29, 18, 6));
    }
    b.config = default_config(*b.cluster, cli::workload_by_name(b.def.app), 2);
    b.config.node_coverage = b.scale.coverage;
    b.config.salt = b.seed;
    b.config.pool = &b.pool;
    std::vector<NodeAllocation> allocations;
    {
      Span span(b.spans, "cluster.allocate", kOpSetup);
      allocations =
          ExclusiveAllocator(*b.cluster).sample_coverage(b.scale.coverage);
    }
    check(!allocations.empty(), "the coverage selects no nodes");
    {
      Span span(b.spans, "engine.config_hash", kOpSetup);
      (void)campaign_config_hash(*b.cluster, b.config);
    }
    b.expected_rows = campaign_rows(b.config, allocations);
    b.where = node_window(allocations, b.seed);
    if (b.def.op != Op::kQueryPass) {
      // In memory: a warm-up that wrote shards would make set-up time a
      // measure of the filesystem's state.
      Span span(b.spans, "engine.warmup", kOpSetup);
      ExperimentConfig warmup = b.config;
      warmup.node_coverage = b.scale.warmup_coverage;
      (void)run_campaign(*b.cluster, warmup);
      s.emplace_back("setup_wall_s", seconds_since(t0));
      return;
    }
    // A query workload's set-up is what a user pays before the first
    // query: writing the store, then one cold query over it.
    const fs::path dir = fresh_store(b);
    RecordFrame frame;
    VariabilityReport first;
    {
      Span span(b.spans, "engine.warmup", kOpSetup);
      frame = run_campaign(*b.cluster, b.config, store_options(b, dir)).frame;
      first = analyze_variability(query::Source(
          query::Dataset::open(dir.string(), dataset_options(b))));
    }
    s.emplace_back("setup_wall_s", seconds_since(t0));
    check_campaign(b, frame, dir);
    b.store = dir;
    flush_disk(b);
    open_fixture(b, dir);
    check(text_of(first) == b.fixture->variability,
          "the set-up's cold query differs from the materialized report");
  });
}

void workload_op(Bench& b) {
  const std::size_t failed = b.ledger.failed;
  switch (b.def.op) {
    case Op::kCampaign:
      campaign_op(b);
      break;
    case Op::kStoreCycle:
      campaign_op(b);
      resume_op(b);
      break;
    case Op::kQueryPass:
      query_pass(b);
      break;
  }
  if (b.ledger.failed != failed) return;
  double ms = 0.0;
  for (const char* part : op_parts(b.def.op)) ms += b.ledger.last(part);
  b.ledger.samples["op_wall_ms"].push_back(ms);
}

void campaign_op(Bench& b) {
  b.ledger.attempt("campaign", [&](Samples& s) {
    check(b.cluster != nullptr, "no cluster (setup failed)");
    const fs::path dir = fresh_store(b);
    const CampaignOptions options = store_options(b, dir);
    CampaignResult result;
    flush_disk(b);
    {
      Span op(b.spans, "engine.run_campaign", kOpCampaign);
      const auto t0 = Clock::now();
      result = run_campaign(*b.cluster, b.config, options);
      s.emplace_back("campaign_ms", seconds_since(t0) * 1e3);
    }
    check_campaign(b, result.frame, dir);
    b.store = dir;
  });
}

void resume_op(Bench& b) {
  b.ledger.attempt("resume", [&](Samples& s) {
    check(b.cluster != nullptr && !b.store.empty(),
          "no completed store to resume");
    const CampaignOptions options = store_options(b, b.store);
    const double ms = timed_ms(
        [&] {
          Span op(b.spans, "engine.resume", kOpResume);
          return run_campaign(*b.cluster, b.config, options);
        },
        [&](const CampaignResult& result) {
          check(result.stats.buckets_restored == result.stats.buckets_total &&
                    result.stats.buckets_run == 0,
                "resume restored " +
                    std::to_string(result.stats.buckets_restored) + " of " +
                    std::to_string(result.stats.buckets_total) + " buckets");
          check(hash_frame_shard(result.frame, 0) == *b.frame_hash,
                "the resumed frame differs from the campaign frame");
        });
    s.emplace_back("resume_ms", ms);
  });
}

void open_fixture(Bench& b, const fs::path& dir) {
  b.fixture.reset();
  QueryFixture f(dir, query::Dataset::open(dir.string(), dataset_options(b)));
  f.frame = f.warm.materialize();
  const query::Source all(f.frame);
  const RecordFrame window = select_where(f.frame, b.where);
  f.variability = text_of(analyze_variability(all));
  f.filtered = text_of(analyze_variability(query::Source(window)));
  f.correlation = text_of(analyze_correlation(all));
  f.flags = text_of(analyze_flags(all));
  f.drift = text_of(analyze_drift(all));
  f.impact = text_of(analyze_user_impact(all));
  std::ostringstream csv;
  export_frame_csv(csv, b.cluster->name(), f.frame);
  f.csv = csv.str();
  std::istringstream csv_in(f.csv);
  const RecordFrame imported = import_results_frame(csv_in);
  f.csv_variability = text_of(analyze_variability(query::Source(imported)));
  b.fixture.emplace(std::move(f));
}

void query_cold(Bench& b) {
  b.ledger.attempt("cold query", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    s.emplace_back(
        "query_cold_ms",
        timed_ms(
            [&] {
              Span op(b.spans, "op.query_cold", kOpQueryCold);
              const query::Dataset ds = open_dataset(b, f.dir, kOpQueryCold);
              const query::Source src(ds);
              plan(b, src, kOpQueryCold);
              assemble(b, src, "query.decode_cold", kOpQueryCold);
              return variability(b, src, kOpQueryCold);
            },
            [&](const VariabilityReport& report) {
              check(text_of(report) == f.variability,
                    "the cold query report differs from the materialized one");
            }));
  });
}

void query_warm(Bench& b) {
  b.ledger.attempt("warm query", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    s.emplace_back(
        "query_warm_ms",
        timed_ms(
            [&] {
              Span op(b.spans, "op.query_warm", kOpQueryWarm);
              const query::Source src(f.warm);
              plan(b, src, kOpQueryWarm);
              assemble(b, src, "query.assemble_warm", kOpQueryWarm);
              return variability(b, src, kOpQueryWarm);
            },
            [&](const VariabilityReport& report) {
              check(text_of(report) == f.variability,
                    "the warm query report differs from the materialized one");
            }));
  });
}

void query_filtered(Bench& b) {
  b.ledger.attempt("filtered query", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    s.emplace_back(
        "query_filtered_ms",
        timed_ms(
            [&] {
              Span op(b.spans, "op.query_filtered", kOpQueryFiltered);
              const query::Dataset ds =
                  open_dataset(b, f.dir, kOpQueryFiltered);
              const query::Source src(ds, b.where);
              plan(b, src, kOpQueryFiltered);
              assemble(b, src, "query.decode_filtered", kOpQueryFiltered);
              return variability(b, src, kOpQueryFiltered);
            },
            [&](const VariabilityReport& report) {
              check(text_of(report) == f.filtered,
                    "the filtered query report differs from frame.select of "
                    "its rows");
            }));
  });
}

/// The five reports of one query_analyses run.
struct Analyses {
  VariabilityReport variability;
  CorrelationReport correlation;
  FlagReport flags;
  std::vector<DriftFlag> drift;
  std::vector<JobImpact> impact;
};

void query_analyses(Bench& b) {
  b.ledger.attempt("analyses", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    s.emplace_back(
        "analyses_ms",
        timed_ms(
            [&] {
              Span op(b.spans, "op.analyses", kOpAnalyses);
              Analyses a;
              {
                Span span(b.spans, "query.variability", kOpAnalyses);
                a.variability = analyze_variability(query::Source(f.warm));
              }
              {
                Span span(b.spans, "query.correlate", kOpAnalyses);
                a.correlation = analyze_correlation(query::Source(f.warm));
              }
              {
                Span span(b.spans, "query.flags", kOpAnalyses);
                a.flags = analyze_flags(query::Source(f.warm));
              }
              {
                Span span(b.spans, "query.drift", kOpAnalyses);
                a.drift = analyze_drift(query::Source(f.warm));
              }
              {
                Span span(b.spans, "query.impact", kOpAnalyses);
                a.impact = analyze_user_impact(query::Source(f.warm));
              }
              return a;
            },
            [&](const Analyses& a) {
              check(text_of(a.variability) == f.variability,
                    "streamed variability differs");
              check(text_of(a.correlation) == f.correlation,
                    "streamed correlation differs");
              check(text_of(a.flags) == f.flags, "streamed flags differ");
              check(text_of(a.drift) == f.drift, "streamed drift differs");
              check(text_of(a.impact) == f.impact,
                    "streamed user impact differs");
            }));
  });
}

void query_materialize(Bench& b) {
  b.ledger.attempt("materialize", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    s.emplace_back(
        "materialize_ms",
        timed_ms(
            [&] {
              Span op(b.spans, "op.materialize", kOpMaterialize);
              const query::Dataset ds = open_dataset(b, f.dir, kOpMaterialize);
              RecordFrame frame;
              {
                Span span(b.spans, "query.materialize", kOpMaterialize);
                frame = ds.materialize();
              }
              VariabilityReport report =
                  variability(b, query::Source(frame), kOpMaterialize);
              return std::make_pair(std::move(frame), std::move(report));
            },
            [&](const std::pair<RecordFrame, VariabilityReport>& out) {
              check(text_of(out.second) == f.variability,
                    "the materialized report differs from the fixture's");
              check(b.frame_hash.has_value() &&
                        hash_frame_shard(out.first, 0) == *b.frame_hash,
                    "the materialized frame differs from the campaign frame");
            }));
  });
}

/// What one csv_roundtrip run read back.
struct CsvRoundTrip {
  RecordFrame frame;
  VariabilityReport report;
};

void csv_roundtrip(Bench& b) {
  b.ledger.attempt("csv roundtrip", [&](Samples& s) {
    const QueryFixture& f = fixture_of(b);
    std::size_t bytes = 0;
    s.emplace_back(
        "csv_roundtrip_ms",
        timed_ms(
            [&] {
              CsvRoundTrip rt;
              Span op(b.spans, "op.csv_roundtrip", kOpCsv);
              {
                // Overwritten in place, not truncated: every export is the
                // same size, so its pages are rewritten in the page cache
                // and the disk's writeback stays out of the timing.
                Span span(b.spans, "telemetry.csv_export", kOpCsv);
                std::ofstream out(b.csv, std::ios::binary | std::ios::in |
                                             std::ios::out);
                export_frame_csv(out, b.cluster->name(), f.frame);
                out.close();
                check(out.good(), "cannot write " + b.csv.string());
              }
              {
                Span span(b.spans, "telemetry.csv_import", kOpCsv);
                std::ifstream in(b.csv, std::ios::binary);
                check(in.good(), "cannot open " + b.csv.string());
                rt.frame = import_results_frame(in);
              }
              rt.report = variability(b, query::Source(rt.frame), kOpCsv);
              return rt;
            },
            [&](const CsvRoundTrip& rt) {
              const std::string written = read_file(b.csv);
              bytes = written.size();
              check(written == f.csv,
                    "the CSV export differs from the fixture's");
              std::ostringstream again;
              export_frame_csv(again, b.cluster->name(), rt.frame);
              check(again.str() == written,
                    "re-exporting the imported CSV changes its bytes");
              check(text_of(rt.report) == f.csv_variability,
                    "the imported frame's report differs from the fixture's");
            }));
    s.emplace_back("csv_bytes", static_cast<double>(bytes));
  });
}

void query_pass(Bench& b) {
  query_cold(b);
  query_warm(b);
  query_filtered(b);
  query_analyses(b);
  query_materialize(b);
  csv_roundtrip(b);
}

void core_analyses(Bench& b) {
  b.ledger.attempt("core analyses", [&](Samples&) {
    const QueryFixture& f = fixture_of(b);
    const query::Source src(f.frame);
    Span op(b.spans, "op.core", kOpCore);
    VariabilityReport var;
    CorrelationReport corr;
    FlagReport flags;
    std::vector<DriftFlag> drift;
    std::vector<JobImpact> impact;
    {
      Span span(b.spans, "core.variability", kOpCore);
      var = analyze_variability(src);
    }
    {
      Span span(b.spans, "core.correlate", kOpCore);
      corr = analyze_correlation(src);
    }
    {
      Span span(b.spans, "core.flags", kOpCore);
      flags = analyze_flags(src);
    }
    {
      Span span(b.spans, "core.drift", kOpCore);
      drift = analyze_drift(src);
    }
    {
      Span span(b.spans, "core.impact", kOpCore);
      impact = analyze_user_impact(src);
    }
    check(text_of(var) == f.variability && text_of(corr) == f.correlation &&
              text_of(flags) == f.flags && text_of(drift) == f.drift &&
              text_of(impact) == f.impact,
          "an analysis over the frame differs from the fixture's report");
  });
}

void decompose(Bench& b) {
  b.ledger.attempt("decomposition", [&](Samples&) {
    check(b.cluster != nullptr && !b.store.empty(),
          "no campaign to decompose");
    const fs::path& store = b.store;
    Span pass(b.spans, "op.decompose", kOpDecompose);
    const std::vector<NodeAllocation> allocations =
        ExclusiveAllocator(*b.cluster).sample_coverage(b.config.node_coverage);
    RunOptions options = b.config.run_options;
    // run_campaign folds the salt this way for an untagged day; the hash
    // check below fails if the two ever disagree.
    options.run_salt = b.config.salt * 101;
    const std::size_t n = allocations.size();
    std::vector<std::string> encoded(n);
    b.pool.parallel_for(n, [&](std::size_t ai) {
      const std::uint64_t op = kOpNodeJob + ai;
      std::vector<GpuRunResult> results;
      {
        Span job(b.spans, "workloads.node_job", op, pass.id());
        for (int run = 0; run < b.config.runs_per_gpu; ++run) {
          std::vector<GpuRunResult> part =
              run_on_node(*b.cluster, allocations[ai].node, b.config.workload,
                          run, options);
          results.insert(results.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
        }
      }
      RecordFrame bucket;
      {
        Span span(b.spans, "telemetry.frame_build", op, pass.id());
        for (const GpuRunResult& r : results) {
          bucket.append_row(to_record(*b.cluster, r, b.config.day_of_week));
        }
      }
      Span span(b.spans, "telemetry.shard_encode", op, pass.id());
      encoded[ai] = serialize_frame_shard(bucket, ai);
    });

    std::vector<RecordFrame> buckets(n);
    for (std::size_t ai = 0; ai < n; ++ai) {
      const fs::path path = store / campaign_shard_file_name(ai);
      std::string bytes;
      {
        Span span(b.spans, "engine.store_read", kOpDecompose);
        bytes = read_file(path);
      }
      check(bytes == encoded[ai],
            path.string() + " differs from its re-encoded bucket");
      Span span(b.spans, "telemetry.shard_decode", kOpDecompose);
      buckets[ai] = parse_frame_shard(bytes, path.string()).frame;
    }
    RecordFrame merged;
    {
      Span span(b.spans, "telemetry.merge", kOpDecompose);
      for (const RecordFrame& bucket : buckets) merged.append(bucket);
    }
    check(hash_frame_shard(merged, 0) == *b.frame_hash,
          "the decomposed campaign differs from run_campaign's frame");
  });
}

}  // namespace gpuvar::e2e
