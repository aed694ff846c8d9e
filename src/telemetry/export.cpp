#include "telemetry/export.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"
#include "common/csv_reader.hpp"
#include "common/location.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame) {
  CsvWriter csv(out);
  csv.header({"cluster", "gpu", "gpu_index", "node", "cabinet", "run",
              "perf_ms", "freq_mhz_median", "power_w_median",
              "temp_c_median", "fu_util", "dram_util", "mem_stall_frac",
              "exec_stall_frac", "day_of_week", "gpu_in_node", "row_idx",
              "column_idx", "node_in_group"});
  const auto perf = frame.perf_ms();
  const auto freq = frame.freq_mhz();
  const auto power = frame.power_w();
  const auto temp = frame.temp_c();
  const auto fu = frame.fu_util();
  const auto dram = frame.dram_util();
  const auto mem_stall = frame.mem_stall_frac();
  const auto exec_stall = frame.exec_stall_frac();
  for (std::size_t i = 0; i < frame.size(); ++i) {
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

void export_series_csv(std::ostream& out, const TimeSeries& series) {
  CsvWriter csv(out);
  csv.header({"t_s", "freq_mhz", "power_w", "temp_c"});
  for (const auto& s : series.samples()) {
    csv.add(s.t.value()).add(s.freq.value()).add(s.power.value()).add(s.temp.value());
    csv.end_row();
  }
}

RecordFrame import_results_frame(std::istream& in) {
  const CsvReader csv(in);
  const auto required = [&](const char* name) {
    const auto c = csv.find_column(name);
    if (!c) {
      throw std::invalid_argument(
          std::string("line 1: results CSV missing column: ") + name);
    }
    return *c;
  };
  const std::size_t gpu = required("gpu");
  const std::size_t node = required("node");
  const std::size_t cabinet = required("cabinet");
  const std::size_t run = required("run");
  const std::size_t perf = required("perf_ms");
  const std::size_t freq = required("freq_mhz_median");
  const std::size_t power = required("power_w_median");
  const std::size_t temp = required("temp_c_median");
  const std::size_t fu = required("fu_util");
  const std::size_t dram = required("dram_util");
  const std::size_t mem_stall = required("mem_stall_frac");
  const std::size_t exec_stall = required("exec_stall_frac");
  const std::size_t day = required("day_of_week");
  const std::size_t gpu_index = required("gpu_index");
  const std::size_t gpu_in_node = required("gpu_in_node");
  const std::size_t row_idx = required("row_idx");
  const std::size_t column_idx = required("column_idx");
  const std::size_t node_in_group = required("node_in_group");

  // One record, reused: each row overwrites every field.
  RecordFrame frame;
  frame.reserve(csv.rows());
  RunRecord r;
  for (std::size_t row = 0; row < csv.rows(); ++row) {
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
    r.gpu_index = static_cast<std::size_t>(integer_in(
        gpu_index, 0, std::numeric_limits<long long>::max()));
    r.loc.name.assign(csv.field(row, gpu));
    r.loc.node = int_at(node);
    r.loc.cabinet = int_at(cabinet);
    r.loc.gpu = int_at(gpu_in_node);
    r.loc.row = int_at(row_idx);
    r.loc.column = int_at(column_idx);
    r.loc.node_in_group = int_at(node_in_group);
    r.run_index = int_at(run);
    // The frame holds the day as int16; a wider value would wrap.
    r.day_of_week = static_cast<int>(
        integer_in(day, std::numeric_limits<std::int16_t>::min(),
                   std::numeric_limits<std::int16_t>::max()));
    r.perf_ms = csv.number(row, perf);
    r.freq_mhz = csv.number(row, freq);
    r.power_w = csv.number(row, power);
    r.temp_c = csv.number(row, temp);
    r.counters.fu_util = csv.number(row, fu);
    r.counters.dram_util = csv.number(row, dram);
    r.counters.mem_stall_frac = csv.number(row, mem_stall);
    r.counters.exec_stall_frac = csv.number(row, exec_stall);
    frame.append_row(r);
    // append_row keeps the first location seen for a gpu_index, so a
    // row naming another GPU under that index would fold into it.
    if (frame.loc(frame.size() - 1) != r.loc) {
      csv.fail(row, "gpu_index " + std::string(csv.field(row, gpu_index)) +
                        " was first seen with another name or location");
    }
  }
  return frame;
}

}  // namespace gpuvar
