// Query-plane property tests: every migrated analysis over a
// dataset-backed Source must be byte-identical to the same analysis
// over the materialized frame at any thread count; pushdown must
// demonstrably skip shards on header facts; and a Dataset must decode
// each shard, and assemble its unfiltered frame, at most once however
// many scans read it.
#include "query/source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "core/cli.hpp"
#include "core/compare.hpp"
#include "core/correlate.hpp"
#include "core/drift.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/flagging.hpp"
#include "core/markdown_report.hpp"
#include "core/projection.hpp"
#include "core/report.hpp"
#include "core/user_impact.hpp"
#include "core/variability.hpp"
#include "obs/metrics.hpp"
#include "query/dataset.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/boxplot.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/record.hpp"
#include "telemetry/shard.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

namespace fs = std::filesystem;

// ---- report fingerprints ---------------------------------------------
// Hexfloat round-trips doubles exactly: two fingerprints are equal iff
// every numeric field is bit-identical (modulo -0.0 == 0.0, which the
// analyses never distinguish).

void put(std::ostream& o, double v) { o << std::hexfloat << v << ','; }

void put_box(std::ostream& o, const stats::BoxSummary& b) {
  o << b.count << ',';
  put(o, b.q1);
  put(o, b.median);
  put(o, b.q3);
  put(o, b.lo_whisker);
  put(o, b.hi_whisker);
  put(o, b.min);
  put(o, b.max);
  o << b.outlier_indices.size() << ';';
}

std::string fp(const VariabilityReport& r) {
  std::ostringstream o;
  o << r.records << ',' << r.gpus << ';';
  for (const MetricVariability* m : {&r.perf, &r.freq, &r.power, &r.temp}) {
    put_box(o, m->box);
    put(o, m->variation_pct);
  }
  return o.str();
}

std::string fp(const FlagReport& r) {
  std::ostringstream o;
  for (const GpuFlag& g : r.gpus) {
    o << g.gpu_index << ',' << g.name << ',' << g.reasons.size() << ',';
    put(o, g.severity);
    o << ';';
  }
  for (const CabinetFlag& c : r.cabinets) o << c.cabinet << ',' << c.note << ';';
  return o.str();
}

std::string fp(const std::vector<DriftFlag>& v) {
  std::ostringstream o;
  for (const DriftFlag& d : v) {
    o << d.gpu_index << ',' << d.name << ',' << d.runs << ',';
    put(o, d.baseline_ms);
    put(o, d.recent_ewma_ms);
    put(o, d.drift_pct);
    put(o, d.noise_sigmas);
    o << ';';
  }
  return o.str();
}

std::string fp(const CampaignComparison& c) {
  std::ostringstream o;
  o << c.matched_gpus << ',' << c.only_before << ',' << c.only_after << ',';
  put(o, c.median_delta_pct);
  put(o, c.noise_floor_pct);
  o << c.significant.size() << ';';
  for (const GpuDelta& d : c.all) {
    o << d.name << ',';
    put(o, d.before_ms);
    put(o, d.after_ms);
    put(o, d.delta_pct);
    o << ';';
  }
  return o.str();
}

std::string fp(const std::vector<JobImpact>& v) {
  std::ostringstream o;
  for (const JobImpact& j : v) {
    o << j.gpus_per_job << ',';
    put(o, j.expected_slowdown);
    put(o, j.p95_slowdown);
    put(o, j.p_any_slow);
    o << ';';
  }
  return o.str();
}

std::string fp(const CorrelationReport& r) {
  std::ostringstream o;
  for (const MetricCorrelation* m : r.all()) {
    put(o, m->rho);
    put(o, m->spearman);
    o << m->strength << ';';
  }
  return o.str();
}

std::string fp(const std::map<int, VariabilityReport>& groups) {
  std::string out;
  for (const auto& [key, r] : groups) {
    out += std::to_string(key) + ':' + fp(r);
  }
  return out;
}

std::string fp(const std::vector<stats::NamedSeries>& series) {
  std::ostringstream o;
  for (const stats::NamedSeries& g : series) {
    o << g.name << ':';
    for (double v : g.values) put(o, v);
    o << ';';
  }
  return o.str();
}

std::string fp(const std::vector<GpuRepeatability>& v) {
  std::ostringstream o;
  for (const GpuRepeatability& g : v) {
    o << g.gpu_index << ',' << g.name << ',' << g.runs << ',';
    put(o, g.median_perf_ms);
    put(o, g.variation_pct);
    o << ';';
  }
  return o.str();
}

/// The projection's fields, or its error: a population too small to
/// fit must fail the same way on both sides of a comparison.
std::string fp_projection(const query::Source& s) {
  std::ostringstream o;
  try {
    const SizeProjection p = project_to_cluster_size(s, 1024);
    o << p.source_gpus << ',' << p.target_gpus << ',';
    put(o, p.source_variation_pct);
    put(o, p.projected_variation_pct);
  } catch (const std::invalid_argument& e) {
    o << "error: " << e.what();
  }
  return o.str();
}

/// The group, repeatability, projection and report analyses over one
/// source; the rendered text (box charts, scatter, markdown) is
/// compared whole.
std::string fp_groups(const query::Source& s) {
  std::ostringstream text;
  print_group_boxes(text, s, Metric::kPerf, GroupBy::kNode);
  print_scatter(text, s, Metric::kPower, Metric::kPerf);
  write_markdown_report(text, s);
  return fp(series_by_group(s, Metric::kPower, GroupBy::kCabinet)) + '|' +
         fp(variability_by_group(s, GroupBy::kCabinet)) + '|' +
         fp(variability_by_group(s, GroupBy::kDayOfWeek)) + '|' +
         fp(per_gpu_repeatability(s)) + '|' +
         fp_projection(s) + '|' + text.str();
}

/// Every analysis, fingerprinted over one source. `compare` runs the
/// source against itself — a degenerate but fully deterministic
/// pairing. `impact_width` caps the impact table's widest job for
/// sources filtered down to small populations.
std::string fp_all(const query::Source& s, int impact_width = 8) {
  UserImpactOptions impact;
  impact.max_width = impact_width;
  return fp(analyze_variability(s)) + '|' + fp(analyze_flags(s)) + '|' +
         fp(analyze_drift(s)) + '|' + fp(analyze_compare(s, s)) + '|' +
         fp(analyze_user_impact(s, impact)) + '|' + fp(analyze_correlation(s)) +
         '|' + fp_groups(s);
}

// ---- fixture ---------------------------------------------------------

/// One checkpointed campaign, written once and shared by every test in
/// the suite (Dataset opens are cheap; the campaign run is not).
class QueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process: ctest runs each QueryTest as its own, possibly
    // concurrent, process, and each one rebuilds and deletes the store.
    dir_ = new fs::path(fs::path(::testing::TempDir()) /
                        ("gpuvar_query_" + std::to_string(::getpid())));
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    const Cluster cluster{cloudlab_spec()};
    const auto cfg = default_config(cluster, sgemm_workload(16384, 2), 2);
    CampaignOptions opts;
    opts.checkpoint_dir = dir_->string();
    frame_ = new RecordFrame(run_campaign(cluster, cfg, opts).frame);
  }
  static void TearDownTestSuite() {
    delete frame_;
    fs::remove_all(*dir_);
    delete dir_;
    frame_ = nullptr;
    dir_ = nullptr;
  }

  static std::string dir() { return dir_->string(); }
  static const RecordFrame& frame() { return *frame_; }

  /// A private copy of the suite's store, for a test that damages it.
  static fs::path copy_store(const std::string& tag) {
    const fs::path copy = fs::path(::testing::TempDir()) /
                          ("gpuvar_query_" + tag + "_" +
                           std::to_string(::getpid()));
    fs::remove_all(copy);
    fs::copy(*dir_, copy, fs::copy_options::recursive);
    return copy;
  }

 private:
  static fs::path* dir_;
  static RecordFrame* frame_;
};

fs::path* QueryTest::dir_ = nullptr;
RecordFrame* QueryTest::frame_ = nullptr;

// ---- tests -----------------------------------------------------------

TEST_F(QueryTest, OpenSeesCompleteCampaign) {
  const query::Dataset d = query::Dataset::open(dir());
  EXPECT_TRUE(d.complete());
  EXPECT_GE(d.shards().size(), 2u) << "pushdown tests need several shards";
  EXPECT_EQ(d.total_rows(), frame().size());
}

TEST_F(QueryTest, OpenJoinsShardPathsAsFilesystemPathsDo) {
  // Paths are a prefix plus a name, joined as fs::path's operator/
  // would: no doubled or missing separator, whatever the spelling.
  for (const std::string& spelling : {dir(), dir() + "/", dir() + "//"}) {
    const query::Dataset d = query::Dataset::open(spelling);
    for (std::size_t i = 0; i < d.shards().size(); ++i) {
      EXPECT_EQ(d.shards()[i].path,
                (fs::path(spelling) / campaign_shard_file_name(i)).string());
    }
  }
}

TEST_F(QueryTest, MaterializeRebuildsEngineFrameByteForByte) {
  const query::Dataset d = query::Dataset::open(dir());
  const RecordFrame rebuilt = d.materialize();
  EXPECT_EQ(serialize_frame_shard(rebuilt, 0), serialize_frame_shard(frame(), 0))
      << "materialize() diverged from the frame the engine merged";
}

TEST_F(QueryTest, AnalysesByteIdenticalAcrossThreads) {
  const std::string want = fp_all(query::Source(frame()));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    query::DatasetOptions opts;
    opts.pool = &pool;
    const query::Dataset d = query::Dataset::open(dir(), opts);
    const query::Source s(d);
    EXPECT_EQ(fp_all(s), want) << "threads=" << threads;
  }
}

TEST_F(QueryTest, PredicateMatchesFrameSelectByteForByte) {
  // Restrict to the first shard's node range: a filter that keeps some
  // rows and (on a multi-shard store) drops others.
  const query::Dataset d = query::Dataset::open(dir());
  const FrameShardStats s0 = d.shards().front().header.stats;
  query::Predicate where;
  where.node.lo = s0.node_min;
  where.node.hi = s0.node_max;

  // Reference: the frame rows the predicate matches, via frame.select.
  const RecordFrame& f = frame();
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (where.matches(f.gpus()[f.gpu_ids()[i]], f.days_of_week()[i])) {
      rows.push_back(i);
    }
  }
  ASSERT_FALSE(rows.empty());
  ASSERT_LT(rows.size(), f.size()) << "predicate must actually filter";
  const RecordFrame selected = f.select(rows);

  const query::Source streamed(d, where);
  ASSERT_EQ(streamed.size(), selected.size());
  // The filtered population can be narrower than the default 8-GPU
  // impact table; cap the width to what it can answer (both sides see
  // the same cap, so byte-identity is still pinned).
  const int width =
      static_cast<int>(std::min<std::size_t>(4, selected.gpu_count()));
  ASSERT_GE(width, 1);
  const std::string want = fp_all(query::Source(selected), width);
  EXPECT_EQ(fp_all(streamed, width), want);
  // The frame-side filter (CSV and --materialize inputs) shares the
  // streamed path's match_rows, and must agree with select too.
  const query::Source filtered(f, where);
  ASSERT_EQ(filtered.size(), selected.size());
  EXPECT_EQ(fp_all(filtered, width), want);

  // Day ranges compare in FieldRange's int64 domain against int16 days:
  // an empty range, bounds beyond int16 on either side and the unbounded
  // range each pick exactly the rows where.matches does, with and
  // without the node restriction. The days spread over int16's extremes.
  constexpr std::int16_t kDays[] = {-32768, -1, 0, 3, 6, 32767};
  RecordFrame spread;
  for (std::size_t i = 0; i < f.size(); ++i) {
    RunRecord r = f.row(i);
    r.day_of_week = kDays[i % std::size(kDays)];
    spread.append_row(r);
  }
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> days[] = {
      {5, 2},            // empty: lo > hi
      {kMin, kMax},      // unbounded
      {40000, 50000},    // both bounds above int16
      {-50000, -40000},  // both bounds below int16
      {-50000, 3},       // lo below int16
      {0, 40000},        // hi above int16
      {kMin, -32768},    // only int16's minimum
      {3, 3},
  };
  for (const query::Predicate& base : {where, query::Predicate{}}) {
    for (const auto& [lo, hi] : days) {
      query::Predicate p = base;
      p.day.lo = lo;
      p.day.hi = hi;
      std::vector<std::uint32_t> expect;
      for (std::size_t i = 0; i < spread.size(); ++i) {
        if (p.matches(spread.gpus()[spread.gpu_ids()[i]],
                      spread.days_of_week()[i])) {
          expect.push_back(static_cast<std::uint32_t>(i));
        }
      }
      EXPECT_EQ(query::match_rows(spread, p), expect) << lo << ".." << hi;
    }
  }
}

TEST_F(QueryTest, SourceDecodesEachPickedShardOnce) {
  // Every column of a dataset-backed Source comes from one decode of
  // each picked shard; reading another column must not decode again.
  const query::Dataset probe = query::Dataset::open(dir());
  const FrameShardStats s0 = probe.shards().front().header.stats;
  query::Predicate first_shard;
  first_shard.node.lo = s0.node_min;
  first_shard.node.hi = s0.node_max;
  for (const query::Predicate& where : {query::Predicate{}, first_shard}) {
    obs::Registry reg;
    obs::ScopedMetrics guard(&reg);
    const query::Dataset d = query::Dataset::open(dir());
    const query::Source source(d, where);
    (void)analyze_variability(source);
    (void)source.run_indices();
    (void)source.days_of_week();
    const std::uint64_t scanned = reg.counter("query.shards_scanned").value();
    EXPECT_GT(scanned, 0u);
    EXPECT_EQ(reg.counter("query.cache_misses").value(), scanned);
  }
}

TEST_F(QueryTest, PushdownSkipsShardsOnHeaderFactsAlone) {
  const query::Dataset probe = query::Dataset::open(dir());
  const auto& shards = probe.shards();
  // Target one node from the first shard; any shard whose header range
  // excludes it must be skipped without a read.
  const std::int64_t node = shards.front().header.stats.node_min;
  query::Predicate where;
  where.node.lo = node;
  where.node.hi = node;
  std::uint64_t expect_scanned = 0;
  for (const auto& sh : shards) {
    if (where.may_match(sh.header.stats)) ++expect_scanned;
  }
  ASSERT_LT(expect_scanned, shards.size())
      << "every shard overlaps one node; bucketing must have changed";

  obs::Registry reg;
  {
    obs::ScopedMetrics guard(&reg);
    const query::Dataset d = query::Dataset::open(dir());
    const query::Source s(d, where);
    EXPECT_GT(s.size(), 0u);
  }
  EXPECT_EQ(reg.counter("query.shards_scanned").value(), expect_scanned);
  EXPECT_EQ(reg.counter("query.shards_skipped").value(),
            shards.size() - expect_scanned);
}

TEST_F(QueryTest, RepeatScansDecodeEachShardOnce) {
  // A Dataset keeps every shard it decodes: two materializations and
  // two full Source scans decode each shard exactly once between them.
  // The first Source assembles the Dataset's whole frame from cached
  // shards; the second borrows that frame and fetches no shard.
  obs::Registry reg;
  {
    obs::ScopedMetrics guard(&reg);
    ThreadPool pool(4);
    query::DatasetOptions opts;
    opts.pool = &pool;
    const query::Dataset d = query::Dataset::open(dir(), opts);
    const std::uint64_t shards = d.shards().size();
    (void)d.materialize();
    EXPECT_EQ(reg.counter("query.cache_misses").value(), shards);
    (void)d.materialize();
    for (int scan = 0; scan < 2; ++scan) {
      const query::Source s(d);
      (void)analyze_variability(s);
    }
    EXPECT_EQ(reg.counter("query.cache_misses").value(), shards)
        << "a repeat scan decoded a shard again";
    EXPECT_EQ(reg.counter("query.cache_hits").value(), 2 * shards);
    // Resident bytes only grow, so the peak is every shard, once, plus
    // the whole frame.
    std::uint64_t resident = d.whole_frame()->memory_bytes();
    for (std::size_t i = 0; i < d.shards().size(); ++i) {
      resident += d.fetch(i)->memory_bytes();
    }
    ASSERT_TRUE(reg.gauge("query.cache_bytes_peak").has_value());
    EXPECT_EQ(reg.gauge("query.cache_bytes_peak").value(), resident);
  }
}

TEST_F(QueryTest, UnfilteredSourcesShareTheDatasetsWholeFrame) {
  // Every unfiltered Source over one Dataset resolves to the same frame
  // object, with materialize()'s bytes.
  const query::Dataset d = query::Dataset::open(dir());
  const query::Source a(d);
  const query::Source b(d);
  EXPECT_EQ(&a.frame(), &b.frame());
  EXPECT_EQ(&a.frame(), d.whole_frame().get());
  EXPECT_EQ(hash_frame_shard(a.frame(), 0),
            hash_frame_shard(d.materialize(), 0));
  EXPECT_EQ(a.size(), d.total_rows());
}

TEST_F(QueryTest, ConcurrentSourcesShareOneWholeFrame) {
  // Four threads resolve unfiltered Sources over one cold Dataset at
  // once: whoever assembles first, all of them get one frame.
  ThreadPool scan(2);
  query::DatasetOptions opts;
  opts.pool = &scan;
  const query::Dataset d = query::Dataset::open(dir(), opts);
  std::vector<const RecordFrame*> seen(4, nullptr);
  ThreadPool callers(4);
  callers.parallel_for(seen.size(), [&](std::size_t t) {
    const query::Source s(d);
    seen[t] = &s.frame();
  });
  for (const RecordFrame* f : seen) EXPECT_EQ(f, d.whole_frame().get());
  EXPECT_EQ(hash_frame_shard(*seen.front(), 0),
            hash_frame_shard(frame(), 0));
}

TEST_F(QueryTest, FilteredSourceOnAWarmDatasetKeepsItsRows) {
  // The whole frame is built first; a filtered Source still assembles
  // its own rows by pushdown and matches frame.select of them.
  const query::Dataset d = query::Dataset::open(dir());
  (void)query::Source(d).frame();
  const FrameShardStats s0 = d.shards().front().header.stats;
  query::Predicate where;
  where.node.lo = s0.node_min;
  where.node.hi = s0.node_max;
  obs::Registry reg;
  obs::ScopedMetrics guard(&reg);
  const query::Source filtered(d, where);
  const auto matched = query::match_rows(frame(), where);
  const RecordFrame want =
      frame().select(std::vector<std::size_t>(matched.begin(), matched.end()));
  ASSERT_LT(want.size(), frame().size());
  EXPECT_NE(&filtered.frame(), d.whole_frame().get());
  EXPECT_EQ(hash_frame_shard(filtered.frame(), 0), hash_frame_shard(want, 0));
  EXPECT_EQ(reg.counter("query.cache_misses").value(), 0u);
  EXPECT_GT(reg.counter("query.shards_skipped").value(), 0u);
}

TEST_F(QueryTest, OpenNamesTheLowestDefectiveShardAtAnyPoolSize) {
  // Two listed shards are damaged: one cut inside its header, one whose
  // header carries a foreign payload hash. Headers are verified in
  // parallel, yet the error always names the lower of the two, with the
  // same message at every pool size, whichever defect comes first.
  for (const bool truncated_first : {true, false}) {
    const fs::path store = copy_store("hostile");
    const query::Dataset intact = query::Dataset::open(store.string());
    const auto& shards = intact.shards();
    ASSERT_GE(shards.size(), 2u);
    const fs::path lo = shards[shards.size() - 2].path;
    const fs::path hi = shards.back().path;
    const fs::path& truncated = truncated_first ? lo : hi;
    const fs::path& foreign = truncated_first ? hi : lo;
    fs::resize_file(truncated, 10);
    {
      // Payload hash: u64 at header offset 38 (see tests/shard_forgery.hpp).
      std::fstream f(foreign, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(38);
      const char byte = static_cast<char>(f.get() ^ 0x5a);
      f.seekp(38);
      f.put(byte);
    }
    std::vector<std::string> messages;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
      ThreadPool pool(threads);
      query::DatasetOptions opts;
      opts.pool = &pool;
      try {
        (void)query::Dataset::open(store.string(), opts);
        ADD_FAILURE() << "a store with two bad shards opened, threads="
                      << threads;
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(lo.string()), std::string::npos) << what;
        EXPECT_EQ(what.find(hi.string()), std::string::npos) << what;
        EXPECT_NE(what.find(truncated_first ? "truncated"
                                            : "disagrees with the campaign"),
                  std::string::npos)
            << what;
        messages.push_back(what);
      }
    }
    ASSERT_EQ(messages.size(), 3u);
    EXPECT_EQ(messages[1], messages[0]);
    EXPECT_EQ(messages[2], messages[0]);
    fs::remove_all(store);
  }
}

TEST_F(QueryTest, OpenNamesADeletedOrReplacedShard) {
  // A listed shard that was deleted, or replaced by a directory, is a
  // clean runtime_error naming its path.
  const fs::path store = copy_store("missing");
  const fs::path shard =
      query::Dataset::open(store.string()).shards().front().path;
  fs::remove(shard);
  for (const char* why : {"cannot open", "cannot read"}) {
    try {
      (void)query::Dataset::open(store.string());
      ADD_FAILURE() << "opened a store whose shard is gone (" << why << ")";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(shard.string()), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
    fs::create_directory(shard);  // the second pass: a directory
  }
  fs::remove_all(store);
}

TEST_F(QueryTest, DecodeNamesAShardSwappedAfterOpen) {
  // Shard 6 copied over shard 5 once the store is open: the file is a
  // valid shard, so only its facts against those open verified betray
  // it. A scan and materialize() must name it instead of merging
  // bucket 6's rows as bucket 5's.
  const fs::path store = fs::path(::testing::TempDir()) /
                         ("gpuvar_query_swap_" + std::to_string(::getpid()));
  fs::remove_all(store);
  ClusterSpec spec = cloudlab_spec();
  spec.layout.nodes = 8;
  spec.layout.gpus_per_node = 2;
  const Cluster cluster(spec);
  CampaignOptions campaign;
  campaign.checkpoint_dir = store.string();
  (void)run_campaign(cluster, default_config(cluster, pagerank_workload(2), 1),
                     campaign);
  const fs::path victim = store / campaign_shard_file_name(5);
  const fs::path intact = store / "bucket-5.intact";
  fs::copy_file(victim, intact);
  for (const bool materialize : {false, true}) {
    fs::copy_file(intact, victim, fs::copy_options::overwrite_existing);
    const query::Dataset d = query::Dataset::open(store.string());
    ASSERT_EQ(fs::path(d.shards()[5].path), victim);
    fs::copy_file(store / campaign_shard_file_name(6), victim,
                  fs::copy_options::overwrite_existing);
    try {
      if (materialize) {
        (void)d.materialize();
      } else {
        (void)query::Source(d).frame();
      }
      ADD_FAILURE() << "decoded a swapped shard, materialize=" << materialize;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(victim.string()), std::string::npos) << what;
      EXPECT_NE(what.find("changed since the store was opened"),
                std::string::npos)
          << what;
    }
    // A fresh open refuses the swapped store on its header alone.
    EXPECT_THROW((void)query::Dataset::open(store.string()),
                 std::runtime_error);
  }
  fs::remove_all(store);
}

TEST_F(QueryTest, ScansNameTheLowerOfTwoCorruptPayloadsAtAnyPoolSize) {
  // A 52-bucket store whose shards 5 and 6 each carry one flipped
  // payload byte behind an intact header: Dataset::open accepts it and
  // only a decode fails. At 4 and 8 threads the guided schedule puts
  // shard 5 at the end of one worker's first run and shard 6 at the
  // start of another's, so 6 fails first; a Source scan and
  // materialize() must still name shard 5, with one message at every
  // pool size.
  const fs::path store = fs::path(::testing::TempDir()) /
                         ("gpuvar_query_payload_" +
                          std::to_string(::getpid()));
  fs::remove_all(store);
  ClusterSpec spec = cloudlab_spec();
  spec.layout.nodes = 52;
  spec.layout.gpus_per_node = 2;
  const Cluster cluster(spec);
  CampaignOptions campaign;
  campaign.checkpoint_dir = store.string();
  (void)run_campaign(cluster, default_config(cluster, pagerank_workload(2), 1),
                     campaign);
  for (const std::size_t victim : {std::size_t{5}, std::size_t{6}}) {
    std::fstream f(store / campaign_shard_file_name(victim),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(-1, std::ios::end);
    const char byte = static_cast<char>(f.get() ^ 0x01);
    f.seekp(-1, std::ios::end);
    f.put(byte);
  }
  const std::string lo = (store / campaign_shard_file_name(5)).string();
  const std::string hi = (store / campaign_shard_file_name(6)).string();

  std::vector<std::string> messages;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    query::DatasetOptions opts;
    opts.pool = &pool;
    for (const bool materialize : {false, true}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                (materialize ? " materialize" : " scan");
      const query::Dataset d = query::Dataset::open(store.string(), opts);
      try {
        if (materialize) {
          (void)d.materialize();
        } else {
          (void)query::Source(d).frame();
        }
        ADD_FAILURE() << label << ": decoded two corrupt payloads";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(lo), std::string::npos) << label << ": " << what;
        EXPECT_EQ(what.find(hi), std::string::npos) << label << ": " << what;
        EXPECT_NE(what.find("payload corrupt"), std::string::npos) << what;
        messages.push_back(what);
      }
    }
  }
  ASSERT_EQ(messages.size(), 6u);
  for (const std::string& m : messages) EXPECT_EQ(m, messages.front());
  fs::remove_all(store);
}

TEST_F(QueryTest, CliAnalyzeMatchesMaterializedOutputByteForByte) {
  const std::vector<std::vector<std::string>> analyses = {
      {"variability"}, {"correlate"}, {"flags"},
      {"drift"},       {"impact"},    {"groups"},
      {"project", "--target", "64"},  {"report"}};
  for (const auto& analysis : analyses) {
    for (const std::string where : {"", "node=0..1"}) {
      std::vector<std::string> args = {"analyze", dir(), "--analysis"};
      args.insert(args.end(), analysis.begin(), analysis.end());
      if (!where.empty()) {
        args.push_back("--where");
        args.push_back(where);
      }
      std::ostringstream streamed, materialized, err;
      ASSERT_EQ(cli::run_cli(args, streamed, err), 0) << err.str();
      args.push_back("--materialize");
      ASSERT_EQ(cli::run_cli(args, materialized, err), 0) << err.str();
      EXPECT_EQ(streamed.str(), materialized.str())
          << analysis.front() << " --where '" << where << "'";
    }
  }

  // groups streams too: pushdown skips the shards outside the filter
  // instead of merging the whole store first.
  obs::Registry reg;
  {
    obs::ScopedMetrics guard(&reg);
    std::ostringstream out, err;
    ASSERT_EQ(cli::run_cli({"analyze", dir(), "--where", "node=0..1",
                            "--analysis", "groups"},
                           out, err),
              0)
        << err.str();
  }
  EXPECT_GT(reg.counter("query.shards_skipped").value(), 0u);
}

}  // namespace
}  // namespace gpuvar
