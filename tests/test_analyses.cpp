// The analyses fan their independent column work out on their Source's
// pool (the Dataset's scan pool, or the global pool for a frame). Every
// result must be byte-equal at any pool size, and two caller threads
// may analyse two Sources over one Dataset at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/correlate.hpp"
#include "core/drift.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/flagging.hpp"
#include "core/user_impact.hpp"
#include "core/variability.hpp"
#include "query/dataset.hpp"
#include "query/source.hpp"
#include "stats/boxplot.hpp"
#include "telemetry/frame.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

namespace fs = std::filesystem;

// ---- raw result bytes ------------------------------------------------
// Every field's object representation, appended in order: two results
// are byte-equal iff every double is bit-identical (-0.0 included).

class Bytes {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_arithmetic_v<T>);
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    out_.append(raw, sizeof(T));
  }
  void put(const std::string& s) {
    put(s.size());
    out_ += s;
  }
  void put(const stats::BoxSummary& b) {
    for (double v : {b.q1, b.median, b.q3, b.iqr, b.lo_whisker, b.hi_whisker,
                     b.range, b.min, b.max}) {
      put(v);
    }
    put(b.count);
    put(b.outlier_indices.size());
    for (std::size_t i : b.outlier_indices) put(i);
  }
  void put(const VariabilityReport& r) {
    for (const MetricVariability* m : {&r.perf, &r.freq, &r.power, &r.temp}) {
      put(m->box);
      put(m->variation_pct);
    }
    put(r.records);
    put(r.gpus);
  }
  void put(const CorrelationReport& r) {
    for (const MetricCorrelation* m : r.all()) {
      put(static_cast<int>(m->x));
      put(static_cast<int>(m->y));
      put(m->rho);
      put(m->spearman);
      put(m->strength);
    }
  }
  void put(const FlagReport& r) {
    put(r.gpus.size());
    for (const GpuFlag& g : r.gpus) {
      put(g.gpu_index);
      put(g.name);
      put(g.severity);
      for (FlagReason reason : g.reasons) put(static_cast<int>(reason));
    }
    for (const CabinetFlag& c : r.cabinets) {
      put(c.cabinet);
      put(c.note);
    }
  }
  void put(const std::vector<DriftFlag>& flags) {
    put(flags.size());
    for (const DriftFlag& d : flags) {
      put(d.gpu_index);
      put(d.name);
      put(d.runs);
      for (double v : {d.baseline_ms, d.recent_ewma_ms, d.drift_pct,
                       d.noise_sigmas}) {
        put(v);
      }
    }
  }
  void put(const std::vector<JobImpact>& table) {
    for (const JobImpact& j : table) {
      put(j.gpus_per_job);
      for (double v : {j.expected_slowdown, j.p95_slowdown, j.p_any_slow}) {
        put(v);
      }
    }
  }
  void put(const std::map<int, VariabilityReport>& groups) {
    put(groups.size());
    for (const auto& [key, r] : groups) {
      put(key);
      put(r);
    }
  }

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Drift thresholds low enough that the test campaign's GPUs get
/// flagged.
DriftOptions sensitive_drift() {
  DriftOptions o;
  o.threshold_sigmas = 0.5;
  o.min_drift_fraction = 0.0;
  return o;
}

/// A slowdown threshold 5 °C above the third temperature quartile, so
/// the GPUs above that quartile count as thermally throttled.
FlagOptions sensitive_flags(const VariabilityReport& r) {
  FlagOptions o;
  o.slowdown_temp = Celsius{r.temp.box.q3 + 5.0};
  return o;
}

/// Every analysis whose column work runs on the Source's pool, plus the
/// helpers that share its per-GPU medians and drift histories.
std::string analyses_bytes(const query::Source& s) {
  Bytes b;
  const VariabilityReport variability = analyze_variability(s);
  b.put(variability);
  b.put(analyze_correlation(s));
  b.put(analyze_flags(s));
  b.put(analyze_flags(s, sensitive_flags(variability)));
  b.put(analyze_drift(s, sensitive_drift()));
  b.put(analyze_user_impact(s));
  b.put(estimate_run_noise_ms(s));
  for (GroupBy g : {GroupBy::kCabinet, GroupBy::kRow, GroupBy::kColumn,
                    GroupBy::kNode}) {
    b.put(variability_by_group(s, g));
  }
  return b.str();
}

/// Byte equality, reported as the first differing offset rather than
/// as two binary dumps.
::testing::AssertionResult same_bytes(const std::string& got,
                                      const std::string& want) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size()) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return ::testing::AssertionFailure()
         << "results differ from byte " << at << " (" << got.size()
         << " vs " << want.size() << " bytes)";
}

class Analyses : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) /
                        ("gpuvar_analyses_" + std::to_string(::getpid())));
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    // Vortex: 216 GPUs over several shards, eight runs each, so drift
    // has histories past its baseline.
    const Cluster cluster{vortex_spec()};
    const auto cfg = default_config(cluster, sgemm_workload(16384, 2), 8);
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

 private:
  static fs::path* dir_;
  static RecordFrame* frame_;
};

fs::path* Analyses::dir_ = nullptr;
RecordFrame* Analyses::frame_ = nullptr;

TEST_F(Analyses, BitEqualAtEveryPoolSize) {
  query::Predicate where;
  where.node = query::FieldRange{0, 20};
  std::string want_all;
  std::string want_filtered;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    query::DatasetOptions opts;
    opts.pool = &pool;
    const query::Dataset d = query::Dataset::open(dir(), opts);
    const query::Source all(d);
    const query::Source filtered(d, where);
    ASSERT_EQ(&all.pool(), &pool);
    ASSERT_LT(filtered.size(), all.size()) << "the filter must drop rows";
    const std::string got_all = analyses_bytes(all);
    const std::string got_filtered = analyses_bytes(filtered);
    if (threads == 1) {
      want_all = got_all;
      want_filtered = got_filtered;
      continue;
    }
    EXPECT_TRUE(same_bytes(got_all, want_all)) << threads << " threads";
    EXPECT_TRUE(same_bytes(got_filtered, want_filtered))
        << threads << " threads, filtered";
  }
  // A frame-backed Source runs on the global pool.
  const query::Source framed(frame());
  EXPECT_FALSE(
      analyze_flags(framed, sensitive_flags(analyze_variability(framed)))
          .gpus.empty());
  EXPECT_FALSE(analyze_drift(framed, sensitive_drift()).empty());
  EXPECT_EQ(&framed.pool(), &ThreadPool::global());
  EXPECT_TRUE(same_bytes(analyses_bytes(framed), want_all));
  EXPECT_TRUE(same_bytes(analyses_bytes(query::Source(frame(), where)),
                         want_filtered));
}

TEST_F(Analyses, ConcurrentSourcesOnOneDataset) {
  // Two caller threads analyse two Sources over one cold Dataset: each
  // Source stays on its own thread, and the analyses' tasks share the
  // Dataset's scan pool.
  const std::string want = analyses_bytes(query::Source(frame()));
  ThreadPool scan(2);
  query::DatasetOptions opts;
  opts.pool = &scan;
  const query::Dataset d = query::Dataset::open(dir(), opts);
  std::vector<std::string> got(2);
  ThreadPool callers(2);
  callers.parallel_for(got.size(), [&](std::size_t t) {
    const query::Source s(d);
    got[t] = analyses_bytes(s);
  });
  for (const std::string& g : got) EXPECT_TRUE(same_bytes(g, want));
}

}  // namespace
}  // namespace gpuvar
