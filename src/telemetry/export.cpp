#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/csv_reader.hpp"
#include "common/location.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar {

namespace {

const std::vector<std::string>& frame_columns() {
  static const std::vector<std::string> columns = {
      "cluster", "gpu", "gpu_index", "node", "cabinet", "run", "perf_ms",
      "freq_mhz_median", "power_w_median", "temp_c_median", "fu_util",
      "dram_util", "mem_stall_frac", "exec_stall_frac", "day_of_week",
      "gpu_in_node", "row_idx", "column_idx", "node_in_group"};
  return columns;
}

/// Frame rows a pool task formats at once.
constexpr std::size_t kExportBlockRows = 256;
/// Blocks formatted before the first of them is written: the export's
/// memory bound, about 2.7 MB of text at summit's ~166 bytes a row.
constexpr std::size_t kExportWindowBlocks = 64;

/// Formats frame rows [begin, end): the one per-row formatter.
void write_rows(CsvWriter& csv, std::string_view cluster_name,
                const RecordFrame& frame, std::size_t begin,
                std::size_t end) {
  const auto perf = frame.perf_ms();
  const auto freq = frame.freq_mhz();
  const auto power = frame.power_w();
  const auto temp = frame.temp_c();
  const auto fu = frame.fu_util();
  const auto dram = frame.dram_util();
  const auto mem_stall = frame.mem_stall_frac();
  const auto exec_stall = frame.exec_stall_frac();
  for (std::size_t i = begin; i < end; ++i) {
    const GpuLocation& loc = frame.loc(i);
    csv.add(cluster_name)
        .add(loc.name)
        .add(frame.gpu_index(i))
        .add(static_cast<long long>(loc.node))
        .add(static_cast<long long>(loc.cabinet))
        .add(static_cast<long long>(frame.run_index(i)))
        .add(perf[i])
        .add(freq[i])
        .add(power[i])
        .add(temp[i])
        .add(fu[i])
        .add(dram[i])
        .add(mem_stall[i])
        .add(exec_stall[i])
        .add(static_cast<long long>(frame.day_of_week(i)))
        .add(static_cast<long long>(loc.gpu))
        .add(static_cast<long long>(loc.row))
        .add(static_cast<long long>(loc.column))
        .add(static_cast<long long>(loc.node_in_group));
    csv.end_row();
  }
}

/// Throws at the lowest row holding a NaN or an infinity, in the words
/// import_results_frame would refuse that row's line with (the header
/// is line 1), so an export never writes a CSV its importer rejects.
void require_finite_metrics(const RecordFrame& frame) {
  const std::span<const double> metrics[] = {
      frame.perf_ms(), frame.freq_mhz(),  frame.power_w(),
      frame.temp_c(),  frame.fu_util(),   frame.dram_util(),
      frame.mem_stall_frac(),             frame.exec_stall_frac()};
  constexpr std::size_t kFirstMetricColumn = 6;  // perf_ms
  std::size_t bad_row = frame.size();
  std::size_t bad_metric = 0;
  for (std::size_t m = 0; m < std::size(metrics); ++m) {
    // Rows below the lowest bad row so far: a tie keeps the earlier
    // column, as the importer checks a row's fields in column order.
    const auto end =
        metrics[m].begin() + static_cast<std::ptrdiff_t>(bad_row);
    const auto it = std::find_if(metrics[m].begin(), end,
                                 [](double v) { return !std::isfinite(v); });
    if (it != end) {
      bad_row = static_cast<std::size_t>(it - metrics[m].begin());
      bad_metric = m;
    }
  }
  if (bad_row == frame.size()) return;
  throw std::invalid_argument(
      "line " + format_int(static_cast<long long>(bad_row + 2)) +
      ": not a finite number '" + format_double(metrics[bad_metric][bad_row]) +
      "' in column " + frame_columns()[kFirstMetricColumn + bad_metric]);
}

}  // namespace

void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame, ThreadPool* pool) {
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::global();
  require_finite_metrics(frame);
  {
    CsvWriter csv(out);
    csv.header(frame_columns());
  }
  const std::size_t rows = frame.size();
  const std::size_t blocks =
      (rows + kExportBlockRows - 1) / kExportBlockRows;
  // One text per window slot, reused window after window.
  std::vector<std::string> texts(std::min(blocks, kExportWindowBlocks));
  for (std::size_t first = 0; first < blocks; first += texts.size()) {
    const std::size_t n = std::min(texts.size(), blocks - first);
    workers.parallel_for(n, [&](std::size_t k) {
      const std::size_t begin = (first + k) * kExportBlockRows;
      // Formatted in a string of this task's own, not in place: the
      // slots share cache lines, and every append writes the length.
      std::string text = std::move(texts[k]);
      text.clear();
      {
        CsvWriter csv(text, frame_columns().size());
        write_rows(csv, cluster_name, frame, begin,
                   std::min(rows, begin + kExportBlockRows));
      }
      texts[k] = std::move(text);
    });
    for (std::size_t k = 0; k < n; ++k) {
      out.write(texts[k].data(), static_cast<std::streamsize>(texts[k].size()));
    }
  }
}

void export_series_csv(std::ostream& out, const TimeSeries& series) {
  CsvWriter csv(out);
  csv.header({"t_s", "freq_mhz", "power_w", "temp_c"});
  for (const auto& s : series.samples()) {
    csv.add(s.t.value()).add(s.freq.value()).add(s.power.value()).add(s.temp.value());
    csv.end_row();
  }
}

namespace {

/// The column of each field import_results_frame reads.
struct ImportColumns {
  std::size_t gpu, gpu_index, node, cabinet, gpu_in_node, row_idx,
      column_idx, node_in_group, run, day, perf, freq, power, temp, fu, dram,
      mem_stall, exec_stall;
};

/// A row's GPU as parsed, but for its name: what the interning pass
/// reads.
struct GpuKey {
  std::size_t gpu_index;
  int node, cabinet, gpu, row, column, node_in_group;
};

/// Frame rows a pool task parses at once.
constexpr std::size_t kImportBlockRows = 1024;

/// A row's parse error, carried out of the pool with the row it names.
struct BadRow {
  std::size_t row;
  std::exception_ptr error;
};

}  // namespace

RecordFrame import_results_frame(std::istream& in, ThreadPool* pool) {
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::global();
  const CsvReader csv(in, &workers);
  const auto required = [&](const char* name) {
    const auto c = csv.find_column(name);
    if (!c) {
      throw std::invalid_argument(
          std::string("line 1: results CSV missing column: ") + name);
    }
    return *c;
  };
  ImportColumns c{};
  c.gpu = required("gpu");
  c.node = required("node");
  c.cabinet = required("cabinet");
  c.run = required("run");
  c.perf = required("perf_ms");
  c.freq = required("freq_mhz_median");
  c.power = required("power_w_median");
  c.temp = required("temp_c_median");
  c.fu = required("fu_util");
  c.dram = required("dram_util");
  c.mem_stall = required("mem_stall_frac");
  c.exec_stall = required("exec_stall_frac");
  c.day = required("day_of_week");
  c.gpu_index = required("gpu_index");
  c.gpu_in_node = required("gpu_in_node");
  c.row_idx = required("row_idx");
  c.column_idx = required("column_idx");
  c.node_in_group = required("node_in_group");

  const std::size_t rows = csv.rows();
  RecordFrame frame;
  for (auto* column : {&frame.perf_, &frame.freq_, &frame.power_,
                       &frame.temp_, &frame.fu_, &frame.dram_,
                       &frame.mem_stall_, &frame.exec_stall_}) {
    column->resize(rows);
  }
  frame.run_.resize(rows);
  frame.day_.resize(rows);
  frame.gpu_id_.resize(rows);
  std::vector<GpuKey> keys(rows);

  // Parses row `row` into the frame's columns and keys[row], checking
  // its fields in column order; throws at the first bad one.
  const auto parse_row = [&](std::size_t row) {
    const auto integer_in = [&](std::size_t col, long long lo, long long hi) {
      const long long v = csv.integer(row, col);
      if (v < lo || v > hi) {
        csv.fail(row, "integer out of range '" +
                          std::string(csv.field(row, col)) + "' in column " +
                          csv.columns()[col]);
      }
      return v;
    };
    const auto int_at = [&](std::size_t col) {
      return static_cast<int>(integer_in(col, std::numeric_limits<int>::min(),
                                         std::numeric_limits<int>::max()));
    };
    GpuKey& key = keys[row];
    key.gpu_index = static_cast<std::size_t>(
        integer_in(c.gpu_index, 0, std::numeric_limits<long long>::max()));
    key.node = int_at(c.node);
    key.cabinet = int_at(c.cabinet);
    key.gpu = int_at(c.gpu_in_node);
    key.row = int_at(c.row_idx);
    key.column = int_at(c.column_idx);
    key.node_in_group = int_at(c.node_in_group);
    frame.run_[row] = int_at(c.run);
    // The frame holds the day as int16; a wider value would wrap.
    frame.day_[row] = static_cast<std::int16_t>(
        integer_in(c.day, std::numeric_limits<std::int16_t>::min(),
                   std::numeric_limits<std::int16_t>::max()));
    frame.perf_[row] = csv.number(row, c.perf);
    frame.freq_[row] = csv.number(row, c.freq);
    frame.power_[row] = csv.number(row, c.power);
    frame.temp_[row] = csv.number(row, c.temp);
    frame.fu_[row] = csv.number(row, c.fu);
    frame.dram_[row] = csv.number(row, c.dram);
    frame.mem_stall_[row] = csv.number(row, c.mem_stall);
    frame.exec_stall_[row] = csv.number(row, c.exec_stall);
  };

  // Rows are parsed in blocks on the pool. The pool rethrows the lowest
  // block's error, and every block below it has finished, so rows
  // [0, good) are parsed and `good` is the lowest bad row.
  std::size_t good = rows;
  std::exception_ptr parse_error;
  try {
    workers.parallel_for(
        (rows + kImportBlockRows - 1) / kImportBlockRows, [&](std::size_t b) {
          const std::size_t end = std::min(rows, (b + 1) * kImportBlockRows);
          for (std::size_t row = b * kImportBlockRows; row < end; ++row) {
            try {
              parse_row(row);
            } catch (const std::invalid_argument&) {
              throw BadRow{row, std::current_exception()};
            }
          }
        });
  } catch (const BadRow& bad) {
    good = bad.row;
    parse_error = bad.error;
  }

  // Interning is one ordered pass over the parsed rows, so ids follow
  // first appearance, and a gpu_index first seen with another GPU is
  // named when its line comes before the first parse error, as one pass
  // names it. One location, reused: each row overwrites every field, and
  // the name keeps its buffer.
  GpuLocation loc;
  for (std::size_t row = 0; row < good; ++row) {
    const GpuKey& key = keys[row];
    loc.node = key.node;
    loc.cabinet = key.cabinet;
    loc.gpu = key.gpu;
    loc.row = key.row;
    loc.column = key.column;
    loc.node_in_group = key.node_in_group;
    loc.name.assign(csv.field(row, c.gpu));
    const std::uint32_t id = frame.intern(key.gpu_index, loc);
    frame.gpu_id_[row] = id;
    // intern keeps the first location seen for a gpu_index, so a row
    // naming another GPU under that index would fold into it.
    if (frame.gpus_[id].loc != loc) {
      csv.fail(row, "gpu_index " + std::string(csv.field(row, c.gpu_index)) +
                        " was first seen with another name or location");
    }
  }
  if (parse_error) std::rethrow_exception(parse_error);
  return frame;
}

}  // namespace gpuvar
