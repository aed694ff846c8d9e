#include "core/cli.hpp"
#include "gpu/sku.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace gpuvar::cli {
namespace {

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int rc = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

/// The integer after `label` in `text` (-1 when absent).
long long number_after(const std::string& text, const std::string& label) {
  const std::size_t at = text.find(label);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + label.size()));
}

class CliTest : public ::testing::Test {
 protected:
  // Tests run as separate, possibly concurrent processes: each gets its
  // own scratch directory, named after the test.
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gpuvar_cli_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string csv() const { return path("results.csv"); }
  std::string store() const { return path("ck"); }

  /// One small cloudlab SGEMM campaign, checkpointed to store() and
  /// exported to csv().
  void make_campaign(const std::string& reps, const std::string& runs) {
    std::string out, err;
    ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                   "--reps", reps, "--runs", runs, "--checkpoint", store(),
                   "--out", csv()},
                  &out, &err),
              0)
        << err;
    ASSERT_TRUE(std::filesystem::exists(csv()));
  }

  std::filesystem::path dir_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, RegistryIsOneCampaignAndOneAnalysisCommand) {
  std::vector<std::string> names;
  for (const auto& cmd : command_registry()) names.emplace_back(cmd.name);
  EXPECT_EQ(names, (std::vector<std::string>{"clusters", "workloads", "run",
                                             "analyze"}));
}

TEST_F(CliTest, RetiredCommandsAreUnknown) {
  for (const char* retired :
       {"simulate", "flag", "project", "report", "compare", "drift",
        "query"}) {
    std::string err;
    EXPECT_EQ(run({retired, csv()}, nullptr, &err), 2) << retired;
    EXPECT_TRUE(contains(err, "unknown command: " + std::string(retired)))
        << err;
  }
}

TEST_F(CliTest, ListsClustersAndWorkloads) {
  std::string out;
  EXPECT_EQ(run({"clusters"}, &out), 0);
  EXPECT_NE(out.find("longhorn"), std::string::npos);
  EXPECT_NE(out.find("summit"), std::string::npos);
  EXPECT_EQ(run({"workloads"}, &out), 0);
  EXPECT_NE(out.find("pagerank"), std::string::npos);
}

TEST_F(CliTest, FactoriesRejectUnknownNames) {
  EXPECT_THROW(cluster_by_name("nope"), std::invalid_argument);
  EXPECT_THROW(workload_by_name("nope"), std::invalid_argument);
  EXPECT_EQ(cluster_by_name("corona").sku.vendor, Vendor::kAmd);
  EXPECT_EQ(workload_by_name("bert", 7).iterations, 7);
  EXPECT_EQ(workload_by_name("bert").iterations, 250);
}

TEST_F(CliTest, RunAnalyzeFlagsProjectPipeline) {
  std::string out;
  EXPECT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "5", "--runs", "2", "--out", csv()},
                &out),
            0);
  EXPECT_NE(out.find("variability"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(csv()));

  EXPECT_EQ(run({"analyze", csv(), "--analysis", "groups"}, &out), 0);
  EXPECT_NE(out.find("correlations"), std::string::npos);
  EXPECT_NE(out.find("performance by cabinet"), std::string::npos);

  EXPECT_EQ(run({"analyze", csv(), "--analysis", "flags", "--slowdown-temp",
                 "87"},
                &out),
            0);
  EXPECT_NE(out.find("early-warning"), std::string::npos);

  EXPECT_EQ(run({"analyze", csv(), "--analysis", "project", "--target",
                 "27648"},
                &out),
            0);
  EXPECT_NE(out.find("projected variation at 27648"), std::string::npos);
}

TEST_F(CliTest, EveryAnalysisRunsOnCsvAndStore) {
  make_campaign("4", "3");
  // Each analysis, with the extra flags it needs and a line its output
  // must carry.
  struct Case {
    std::vector<std::string> flags;
    const char* marker;
  };
  const Case cases[] = {
      {{"--analysis", "variability"}, "temperature  median"},
      {{"--analysis", "correlate"}, "correlations"},
      {{"--analysis", "flags"}, "operator early-warning report"},
      {{"--analysis", "drift"}, "run noise sigma"},
      {{"--analysis", "impact"}, "GPU jobs: expected"},
      {{"--analysis", "compare", "--against", csv()}, "population shift"},
      {{"--analysis", "groups", "--group", "node"}, "performance by node"},
      {{"--analysis", "project", "--target", "1024"},
       "projected variation at 1024"},
      {{"--analysis", "report", "--title", "T"}, "# T"},
  };
  for (const std::string& src : {csv(), store()}) {
    for (const Case& c : cases) {
      std::vector<std::string> args{"analyze", src};
      args.insert(args.end(), c.flags.begin(), c.flags.end());
      std::string out, err;
      ASSERT_EQ(run(args, &out, &err), 0) << src << " " << c.flags[1] << err;
      EXPECT_TRUE(contains(out, c.marker)) << src << " " << c.flags[1];
    }
  }
  // Default analysis is variability; a store reports its shards, a CSV
  // its record count.
  std::string out;
  ASSERT_EQ(run({"analyze", store()}, &out), 0);
  EXPECT_EQ(out.rfind("dataset: ", 0), 0u) << out;
  EXPECT_TRUE(contains(out, "variability"));
  ASSERT_EQ(run({"analyze", csv()}, &out), 0);
  EXPECT_EQ(out.rfind("loaded 36 records\nrows matched: 36\n", 0), 0u) << out;
  // The report stays a pure markdown document: no summary lines.
  ASSERT_EQ(run({"analyze", store(), "--analysis", "report"}, &out), 0);
  EXPECT_EQ(out.rfind("# Variability campaign report", 0), 0u) << out;
}

TEST_F(CliTest, WhereFiltersCsvAndStoreAlike) {
  make_campaign("4", "2");
  for (const std::string& src : {csv(), store()}) {
    std::string out;
    ASSERT_EQ(run({"analyze", src, "--where", "node=0", "--analysis",
                   "groups", "--group", "node"},
                  &out),
              0);
    EXPECT_TRUE(contains(out, "performance by node")) << src;
    EXPECT_FALSE(contains(out, "node 001")) << src << out;
    const long long matched = number_after(out, "rows matched: ");
    EXPECT_GT(matched, 0) << src;
    EXPECT_LT(matched, 24) << src;
  }
  std::string err;
  EXPECT_EQ(run({"analyze", csv(), "--where", "node=99"}, nullptr, &err), 1);
  EXPECT_TRUE(contains(err, "no rows match")) << err;
}

TEST_F(CliTest, CsvAndStorePrintTheSameAnalysis) {
  // The CSV carries each GPU's index, so analyses that order or filter by
  // it read the same GPUs from either source: after the source summary
  // line, the output is identical.
  make_campaign("4", "2");
  const std::vector<std::string> forms[] = {
      {"--analysis", "report"},
      {"--where", "gpu=0..3", "--analysis", "variability"},
  };
  for (const auto& flags : forms) {
    std::string from_csv, from_store;
    std::vector<std::string> args{"analyze", csv()};
    args.insert(args.end(), flags.begin(), flags.end());
    ASSERT_EQ(run(args, &from_csv), 0) << flags[1];
    args[1] = store();
    ASSERT_EQ(run(args, &from_store), 0) << flags[1];
    const auto body = [](const std::string& text) {
      return text.substr(text.find('\n') + 1);
    };
    EXPECT_EQ(body(from_csv), body(from_store)) << flags[1];
  }
}

TEST_F(CliTest, WhereRejectsARepeatedField) {
  make_campaign("4", "2");
  // A second range for one field would silently replace the first.
  for (const std::string& src : {csv(), store()}) {
    std::string out, err;
    EXPECT_EQ(run({"analyze", src, "--where", "node=0..3,node=90..99"}, &out,
                  &err),
              1)
        << src;
    EXPECT_TRUE(contains(err, "repeated --where field 'node'")) << src << err;
    EXPECT_EQ(run({"analyze", src, "--where", "day=..,cabinet=0,day=2"},
                  nullptr, &err),
              1)
        << src;
    EXPECT_TRUE(contains(err, "repeated --where field 'day'")) << src << err;
  }
}

TEST_F(CliTest, ReportCompareDriftPipeline) {
  make_campaign("4", "3");
  std::string out;
  EXPECT_EQ(run({"analyze", csv(), "--analysis", "report", "--title",
                 "My campaign", "--slowdown-temp", "87"},
                &out),
            0);
  EXPECT_EQ(out.rfind("# My campaign", 0), 0u);
  EXPECT_NE(out.find("## Variability"), std::string::npos);

  // Compare a campaign against itself: no significant changes.
  EXPECT_EQ(run({"analyze", csv(), "--against", csv(), "--analysis",
                 "compare"},
                &out),
            0);
  EXPECT_NE(out.find("no significant per-GPU changes"), std::string::npos);

  EXPECT_EQ(run({"analyze", csv(), "--analysis", "drift"}, &out), 0);
  EXPECT_NE(out.find("no drift detected"), std::string::npos);
}

TEST_F(CliTest, CompareTreatsAgainstAsTheBaseline) {
  // A 200 W cap slows SGEMM relative to 300 W. With the 300 W campaign
  // as the --against baseline, the population shift must be positive
  // (SRC, the capped campaign, got slower); swapping the roles flips it.
  std::string out, err;
  ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "4", "--runs", "2", "--sweep", "power",
                 "--power-caps", "200,300", "--checkpoint", store()},
                &out, &err),
            0)
      << err;
  const std::string capped = store() + "/cap-200w";
  const std::string uncapped = store() + "/cap-300w";
  const auto shift = [&](const std::string& src, const std::string& base) {
    std::string text;
    EXPECT_EQ(run({"analyze", src, "--against", base, "--analysis",
                   "compare"},
                  &text),
              0);
    const std::size_t at = text.find("population shift: ");
    EXPECT_NE(at, std::string::npos) << text;
    return std::stod(text.substr(at + 18));
  };
  EXPECT_GT(shift(capped, uncapped), 1.0);
  EXPECT_LT(shift(uncapped, capped), -1.0);
}

TEST_F(CliTest, RunOutWritesTheRowCountItReports) {
  // --coverage must shape the CSV exactly as it shapes the campaign.
  std::string out, err;
  ASSERT_EQ(run({"run", "--cluster", "longhorn", "--workload", "sgemm",
                 "--reps", "2", "--runs", "1", "--coverage", "0.1", "--out",
                 csv()},
                &out, &err),
            0)
      << err;
  const long long rows = number_after(out, "rows ");
  ASSERT_GT(rows, 0) << out;
  EXPECT_LT(rows, 416);  // a tenth of longhorn's nodes, not all of them
  EXPECT_EQ(number_after(out, "wrote "), rows) << out;
  std::ifstream file(csv());
  std::string line;
  long long lines = 0;
  while (std::getline(file, line)) ++lines;
  EXPECT_EQ(lines - 1, rows);  // minus the header
}

TEST_F(CliTest, RunWritesTraceAndMetrics) {
  std::string out, err;
  ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "3", "--runs", "1", "--trace", path("t.json"),
                 "--metrics", path("m.txt")},
                &out, &err),
            0)
      << err;
  EXPECT_TRUE(contains(out, "trace: ")) << out;
  std::ifstream trace(path("t.json"));
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_TRUE(contains(trace_text.str(), "\"traceEvents\""));
  std::ifstream metrics(path("m.txt"));
  std::stringstream metrics_text;
  metrics_text << metrics.rdbuf();
  EXPECT_TRUE(contains(metrics_text.str(), "counter experiment.node_jobs "));
}

TEST_F(CliTest, DriftWithoutHistoryFailsGracefully) {
  make_campaign("3", "1");
  std::string err;
  EXPECT_EQ(run({"analyze", csv(), "--analysis", "drift"}, nullptr, &err), 1);
  EXPECT_NE(err.find("history"), std::string::npos);
}

/// A user's mistake is an "error:" line about the input, never an
/// internal precondition naming a source file.
void expect_user_error(const std::string& err, const std::string& needle) {
  EXPECT_TRUE(contains(err, "error: ")) << err;
  EXPECT_TRUE(contains(err, needle)) << err;
  EXPECT_FALSE(contains(err, "precondition failed")) << err;
  EXPECT_FALSE(contains(err, ".cpp")) << err;
}

TEST_F(CliTest, AnalyzeMissingFileFailsGracefully) {
  const std::string missing = "/nonexistent/x.csv";
  std::string err;
  EXPECT_EQ(run({"analyze", missing}, nullptr, &err), 1);
  expect_user_error(err, "cannot open " + missing);
}

TEST_F(CliTest, AnalyzeWithoutSrcNamesSrc) {
  std::string err;
  EXPECT_EQ(run({"analyze"}, nullptr, &err), 1);
  expect_user_error(err, "analyze needs SRC");
}

TEST_F(CliTest, AnalyzeNonStoreDirectoryNamesIt) {
  // A directory is read as a store, so one without a manifest is named
  // as such rather than opened as a CSV. (An unreadable file has no test:
  // root reads any file whatever its mode bits.)
  const std::string empty = path("empty_dir");
  std::filesystem::create_directories(empty);
  std::string err;
  EXPECT_EQ(run({"analyze", empty}, nullptr, &err), 1);
  expect_user_error(err, empty);
}

TEST_F(CliTest, AnalyzeHeaderOnlyCsvNamesTheFile) {
  make_campaign("3", "1");
  std::string header;
  {
    std::ifstream in(csv());
    std::getline(in, header);
  }
  const std::string empty = path("header_only.csv");
  std::ofstream(empty) << header << "\n";
  std::string err;
  EXPECT_EQ(run({"analyze", empty}, nullptr, &err), 1);
  expect_user_error(err, "no records in " + empty);
}

TEST_F(CliTest, BadCsvErrorNamesFileAndLine) {
  make_campaign("3", "1");
  // Corrupt the perf_ms cell of the first data row (line 2).
  std::string text;
  {
    std::ifstream in(csv());
    std::getline(in, text, '\0');
  }
  std::size_t at = text.find('\n') + 1;
  for (int comma = 0; comma < 6; ++comma) at = text.find(',', at) + 1;
  text.replace(at, text.find(',', at) - at, "abc");
  const std::string bad = path("bad.csv");
  std::ofstream(bad) << text;

  std::string err;
  EXPECT_EQ(run({"analyze", bad}, nullptr, &err), 1);
  EXPECT_TRUE(contains(err, bad + " line 2: not a number 'abc' in column "
                                  "perf_ms"))
      << err;
}

TEST_F(CliTest, AnalyzeNonFiniteCsvNamesTheLine) {
  make_campaign("3", "2");
  // perf_ms set to "nan" on every third data row, from the third on
  // (line 4). from_chars parses "nan", so only the importer's own check
  // keeps it out of the analyses.
  // No field of this CSV is quoted, so a line splits at every comma.
  const auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    for (std::string f; std::getline(ss, f, ',');) fields.push_back(f);
    return fields;
  };
  const auto join = [](const std::vector<std::string>& fields) {
    std::string line;
    for (const std::string& f : fields) line += (line.empty() ? "" : ",") + f;
    return line;
  };
  std::ifstream in(csv());
  std::string line;
  std::getline(in, line);
  std::string text = line + "\n";
  const std::vector<std::string> header = split(line);
  const auto perf_col = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), "perf_ms") - header.begin());
  ASSERT_LT(perf_col, header.size());
  for (int row = 0; std::getline(in, line); ++row) {
    std::vector<std::string> fields = split(line);
    ASSERT_EQ(fields.size(), header.size()) << line;
    if (row % 3 == 2) fields[perf_col] = "nan";
    text += join(fields) + "\n";
  }
  const std::string bad = path("nan.csv");
  std::ofstream(bad) << text;

  for (const char* analysis : {"variability", "correlate", "impact"}) {
    std::string out, err;
    EXPECT_EQ(run({"analyze", bad, "--analysis", analysis}, &out, &err), 1)
        << analysis;
    EXPECT_TRUE(contains(err, bad + " line 4: not a finite number 'nan' in "
                                    "column perf_ms"))
        << analysis << ": " << err;
    EXPECT_FALSE(contains(err, "precondition failed")) << analysis << err;
    EXPECT_FALSE(contains(err, ".cpp")) << analysis << err;
  }
}

TEST_F(CliTest, UserErrorsNameTheInputNotTheSource) {
  make_campaign("3", "2");
  // Derived CSVs: the header plus the rows whose `column` field is
  // `value`. No field of this CSV is quoted, so fields split at commas.
  const auto rows_where = [&](std::size_t column, const std::string& value,
                              const std::string& name) {
    std::ifstream in(csv());
    std::string line;
    std::getline(in, line);
    std::string text = line + "\n";
    while (std::getline(in, line)) {
      std::size_t at = 0;
      for (std::size_t c = 0; c < column; ++c) at = line.find(',', at) + 1;
      if (line.substr(at, line.find(',', at) - at) == value) {
        text += line + "\n";
      }
    }
    std::ofstream(path(name)) << text;
    return path(name);
  };
  const std::string one_run = rows_where(5, "0", "one_run.csv");
  const std::string node0 = rows_where(3, "0", "node0.csv");
  const std::vector<std::string> run_cmd = {"run", "--cluster", "cloudlab",
                                            "--reps", "3", "--runs", "1"};
  const auto run_with = [&](std::vector<std::string> extra) {
    extra.insert(extra.begin(), run_cmd.begin(), run_cmd.end());
    return extra;
  };
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"analyze", csv(), "--where", "foo"},
       "bad --where term 'foo' (want FIELD=LO..HI)"},
      {{"analyze", csv(), "--where", "bogus=1"},
       "unknown --where field 'bogus', try one of node, gpu, day, cabinet, "
       "row, col"},
      {{"analyze", csv(), "--where", "node=a..b"},
       "bad --where range 'a..b' for node"},
      {{"analyze", csv(), "--where"}, "missing value for --where"},
      {{"analyze", csv(), "--analysis", "project"},
       "project needs --target N"},
      {{"analyze", csv(), "--analysis", "compare"},
       "--analysis compare needs --against SRC"},
      {{"analyze", csv(), "--analysis", "compare", "--against", node0,
        "--where", "node=1"},
       "no rows match the --where filter in --against"},
      {{"analyze", csv(), "--where", "node=99999"},
       "no rows match the --where filter"},
      {{"analyze", one_run, "--analysis", "drift"},
       "drift needs repeated runs per GPU (a history)"},
      {{"analyze", csv(), "--slowdown-temp", "abc"},
       "not a number: 'abc' for --slowdown-temp"},
      {run_with({"--sweep", "power"}),
       "--sweep power needs --power-caps W1,W2,..."},
      {run_with({"--sweep", "power", "--power-caps", "150,abc"}),
       "bad power cap 'abc' in --power-caps"},
      {run_with({"--sweep", "power", "--power-caps", "150.5"}),
       "power cap must be a whole number of watts in [0, 1000000], got "
       "150.5"},
      {run_with({"--out", "/nonexistent/x.csv"}),
       "cannot write /nonexistent/x.csv"},
      {run_with({"--trace", "/nonexistent/t.json"}),
       "cannot write /nonexistent/t.json"},
      {run_with({"--metrics", "/nonexistent/m.txt"}),
       "cannot write /nonexistent/m.txt"},
      {run_with({"--shard-budget", "5"}),
       "a bounded shard budget needs a checkpoint directory to spill into "
       "(--shard-budget 5 needs --checkpoint DIR)"},
      {run_with({"--shard-budget", "abc"}),
       "bad --shard-budget 'abc' (want BYTES, BYTES with K/M/G, or "
       "'unlimited')"},
      {run_with({"--shard-budget", "99999999999999G"}),
       "--shard-budget '99999999999999G' overflows a 64-bit byte count"},
  };
  for (const auto& [args, needle] : bad) {
    std::string err;
    EXPECT_EQ(run(args, nullptr, &err), 1) << needle;
    expect_user_error(err, needle);
  }
}

TEST_F(CliTest, ProjectRequiresTarget) {
  make_campaign("4", "2");
  std::string out, err;
  EXPECT_EQ(run({"analyze", csv(), "--analysis", "project"}, &out, &err), 1);
  EXPECT_TRUE(contains(err, "--target")) << err;
  EXPECT_TRUE(out.empty()) << "rejected before any data is read: " << out;
}

TEST_F(CliTest, RejectsNonIntegerCounts) {
  make_campaign("3", "1");
  // Each: an integer flag given NaN, a fraction or an out-of-range value,
  // or a number flag given a non-finite or out-of-range value. The error
  // names the flag, and nothing runs with the value ignored.
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"run", "--runs", "1e12"}, "--runs needs an integer"},
      {{"run", "--runs", "2.5"}, "--runs needs an integer"},
      {{"run", "--reps", "nan"}, "--reps needs an integer"},
      {{"run", "--runs", "0"}, "--runs needs an integer"},
      {{"analyze", csv(), "--analysis", "project", "--target", "1e30"},
       "--target needs an integer"},
      {{"analyze", csv(), "--analysis", "project", "--target", "-4"},
       "--target needs an integer"},
      {{"analyze", store(), "--threads", "1.5"}, "--threads needs an integer"},
      {{"analyze", store(), "--threads", "100000"},
       "--threads needs an integer in [1, 256]"},
      {{"run", "--power-limit", "-50"}, "--power-limit needs a cap >= 0 W"},
      {{"run", "--power-limit", "nan"}, "--power-limit needs a finite number"},
      {{"run", "--coverage", "inf"}, "--coverage needs a finite number"},
      {{"analyze", csv(), "--slowdown-temp", "nan"},
       "--slowdown-temp needs a finite number"},
  };
  for (const auto& [args, message] : bad) {
    std::string out, err;
    EXPECT_EQ(run(args, &out, &err), 1) << args[args.size() - 2] << " "
                                        << args.back();
    EXPECT_TRUE(contains(err, message)) << err;
    EXPECT_TRUE(out.empty()) << "rejected before any work: " << out;
  }
}

TEST_F(CliTest, RejectsUnknownEnumValues) {
  make_campaign("3", "1");
  std::string err;
  EXPECT_EQ(run({"analyze", csv(), "--analysis", "groups", "--group", "rack"},
                nullptr, &err),
            1);
  EXPECT_TRUE(contains(err, "unknown --group 'rack', try one of cabinet"))
      << err;
  EXPECT_EQ(run({"analyze", csv(), "--analysis", "frob"}, nullptr, &err), 1);
  EXPECT_TRUE(contains(err, "unknown --analysis 'frob', try one of")) << err;
}

TEST_F(CliTest, RejectsStoreOnlyFlagsOnCsv) {
  make_campaign("3", "1");
  const std::vector<std::vector<std::string>> store_only = {
      {"--threads", "2"},
      {"--materialize"},
  };
  for (const auto& flag : store_only) {
    std::vector<std::string> args{"analyze", csv()};
    args.insert(args.end(), flag.begin(), flag.end());
    std::string err;
    EXPECT_EQ(run(args, nullptr, &err), 1) << flag[0];
    EXPECT_TRUE(contains(err, flag[0] + " applies only to a checkpoint store"))
        << err;
    // The same flag is fine on the store.
    args[1] = store();
    EXPECT_EQ(run(args, nullptr, &err), 0) << flag[0] << err;
  }
}

TEST_F(CliTest, MissingOptionValueFails) {
  std::string err;
  EXPECT_EQ(run({"run", "--cluster"}, nullptr, &err), 1);
  EXPECT_NE(err.find("missing value"), std::string::npos);
}

// Byte-budget grammar and overflow tests live in test_bytesize.cpp,
// next to the shared parse_byte_size every budget flag routes through.

TEST_F(CliTest, RunSwitchesToAmdGemmOnCorona) {
  // Running SGEMM on corona must pick the 24576 AMD input size without
  // the caller knowing about it. We verify via a tiny coverage run.
  std::string out;
  EXPECT_EQ(run({"run", "--cluster", "corona", "--workload", "sgemm",
                 "--reps", "3", "--runs", "1", "--coverage", "0.05"},
                &out),
            0);
  EXPECT_NE(out.find("campaign: sgemm on corona"), std::string::npos);
}

}  // namespace
}  // namespace gpuvar::cli
