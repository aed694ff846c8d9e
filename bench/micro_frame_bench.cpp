// Micro-benchmarks for the columnar RecordFrame (google-benchmark):
// AoS rows vs SoA columns on the three hot paths of the analysis
// pipeline — column extraction, per-GPU aggregation, and frame
// construction — plus the bytes-per-record memory story. The *_Rows
// variants drive the row-oriented reference implementations the frame
// replaced — the library deleted those adapters, so the AoS bodies live
// here as the baseline under measurement; the acceptance bar is >= 2x on
// extraction and aggregation at >= 100k records.
#include <benchmark/benchmark.h>

#include <map>
#include <ostream>
#include <streambuf>

#include "gpuvar.hpp"

namespace {

using gpuvar::Metric;
using gpuvar::RecordFrame;
using gpuvar::RunRecord;

/// Synthetic campaign: `gpus` GPUs x `runs` runs, run-major like the
/// experiment runner emits, with realistic string names per location.
std::vector<RunRecord> synth_records(std::size_t gpus, int runs) {
  gpuvar::Rng rng(0xF0A);
  std::vector<RunRecord> out;
  out.reserve(gpus * static_cast<std::size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    for (std::size_t g = 0; g < gpus; ++g) {
      RunRecord r;
      r.gpu_index = g;
      r.loc.node = static_cast<int>(g / 4);
      r.loc.gpu = static_cast<int>(g % 4);
      r.loc.cabinet = static_cast<int>(g / 16);
      r.loc.name = "c" + std::to_string(g / 16) + "-" +
                   std::to_string((g / 4) % 4) + "-gpu" +
                   std::to_string(g % 4);
      r.run_index = run;
      r.day_of_week = static_cast<int>(g % 7);
      r.perf_ms = rng.normal(2500.0, 40.0);
      r.freq_mhz = rng.normal(1390.0, 12.0);
      r.power_w = rng.normal(300.0, 5.0);
      r.temp_c = rng.normal(62.0, 4.0);
      r.counters.fu_util = rng.uniform(0.4, 0.9);
      r.counters.dram_util = rng.uniform(0.1, 0.6);
      r.counters.mem_stall_frac = rng.uniform(0.05, 0.3);
      r.counters.exec_stall_frac = rng.uniform(0.05, 0.3);
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Bench-local frame construction (the bulk row adapter left the
/// library with the deprecation cycle; streaming append_row is the API).
RecordFrame frame_from(const std::vector<RunRecord>& rows) {
  RecordFrame f;
  f.reserve(rows.size());
  for (const auto& r : rows) f.append_row(r);
  return f;
}

/// The retired AoS extraction: allocate + copy per call. Preserved here
/// verbatim as the *_Rows baseline.
std::vector<double> rows_metric_column(const std::vector<RunRecord>& records,
                                       Metric m) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(gpuvar::metric_value(r, m));
  return out;
}

/// The retired AoS aggregation: a map node per GPU, a pointer chase per
/// row. Preserved here verbatim as the *_Rows baseline.
std::vector<gpuvar::GpuAggregate> rows_per_gpu_medians(
    const std::vector<RunRecord>& records) {
  std::map<std::size_t, std::vector<const RunRecord*>> by_gpu;
  for (const auto& r : records) by_gpu[r.gpu_index].push_back(&r);

  std::vector<gpuvar::GpuAggregate> out;
  out.reserve(by_gpu.size());
  for (const auto& [gpu, rs] : by_gpu) {
    gpuvar::GpuAggregate agg;
    agg.gpu_index = gpu;
    agg.loc = rs.front()->loc;
    agg.runs = static_cast<int>(rs.size());
    std::vector<double> perf, freq, power, temp;
    perf.reserve(rs.size());
    for (const RunRecord* r : rs) {
      perf.push_back(r->perf_ms);
      freq.push_back(r->freq_mhz);
      power.push_back(r->power_w);
      temp.push_back(r->temp_c);
    }
    agg.perf_ms = gpuvar::stats::median(perf);
    agg.freq_mhz = gpuvar::stats::median(freq);
    agg.power_w = gpuvar::stats::median(power);
    agg.temp_c = gpuvar::stats::median(temp);
    out.push_back(std::move(agg));
  }
  return out;
}

constexpr int kRuns = 4;

std::size_t gpus_for(benchmark::State& state) {
  return static_cast<std::size_t>(state.range(0)) / kRuns;
}

// --- column extraction ----------------------------------------------------

void BM_ColumnExtract_Rows(benchmark::State& state) {
  const auto records = synth_records(gpus_for(state), kRuns);
  double sink = 0.0;
  for (auto _ : state) {
    // The retired AoS path: allocate + copy per extraction.
    const auto col = rows_metric_column(records, Metric::kPerf);
    for (double v : col) sink += v;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ColumnExtract_Rows)->Arg(100000)->Arg(400000);

void BM_ColumnExtract_Frame(benchmark::State& state) {
  const auto frame = frame_from(synth_records(gpus_for(state), kRuns));
  double sink = 0.0;
  for (auto _ : state) {
    // Zero-copy span view over the contiguous column.
    const auto col = frame.metric(Metric::kPerf);
    for (double v : col) sink += v;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ColumnExtract_Frame)->Arg(100000)->Arg(400000);

// --- per-GPU aggregation --------------------------------------------------

void BM_PerGpuMedians_Rows(benchmark::State& state) {
  const auto records = synth_records(gpus_for(state), kRuns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rows_per_gpu_medians(records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_PerGpuMedians_Rows)->Arg(100000)->Arg(400000);

void BM_PerGpuMedians_Frame(benchmark::State& state) {
  const auto frame = frame_from(synth_records(gpus_for(state), kRuns));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::per_gpu_medians(frame));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_PerGpuMedians_Frame)->Arg(100000)->Arg(400000);

// --- frame construction ---------------------------------------------------

void BM_FrameBuild(benchmark::State& state) {
  const auto records = synth_records(gpus_for(state), kRuns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame_from(records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_FrameBuild)->Arg(100000)->Arg(400000);

// --- CSV export -----------------------------------------------------------

/// Swallows every byte while counting them: the export benchmark
/// measures formatting + buffering, not filesystem throughput.
class CountingNullBuf : public std::streambuf {
 public:
  std::size_t bytes() const { return bytes_; }

 protected:
  int overflow(int c) override {
    ++bytes_;
    return c;
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    bytes_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t bytes_ = 0;
};

void BM_ExportFrameCsv(benchmark::State& state) {
  // The campaign artifact path: every cell goes through the buffered
  // CsvWriter (to_chars straight into its 16 KiB buffer, flushed in
  // chunks), so throughput here is the cost of streaming a merged
  // frame to disk minus the disk.
  const auto frame = frame_from(synth_records(gpus_for(state), kRuns));
  std::size_t bytes = 0;
  for (auto _ : state) {
    CountingNullBuf sink;
    std::ostream out(&sink);
    gpuvar::export_frame_csv(out, "bench", frame);
    bytes = sink.bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ExportFrameCsv)->Arg(100000)->Arg(400000);

// --- memory footprint (reported as bytes/record counters) -----------------

void BM_MemoryBytesPerRecord(benchmark::State& state) {
  const auto records = synth_records(gpus_for(state), kRuns);
  const auto frame = frame_from(records);
  std::size_t row_bytes = records.capacity() * sizeof(RunRecord);
  for (const auto& r : records) row_bytes += r.loc.name.capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.memory_bytes());
  }
  const double n = static_cast<double>(records.size());
  state.counters["rows_bytes_per_record"] =
      static_cast<double>(row_bytes) / n;
  state.counters["frame_bytes_per_record"] =
      static_cast<double>(frame.memory_bytes()) / n;
}
BENCHMARK(BM_MemoryBytesPerRecord)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
