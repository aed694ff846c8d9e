#include "telemetry/export.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"
#include "common/csv_reader.hpp"
#include "common/rng.hpp"
#include "common/location.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame) {
  CsvWriter csv(out);
  csv.header({"cluster", "gpu", "node", "cabinet", "run", "perf_ms",
              "freq_mhz_median", "freq_mhz_min", "freq_mhz_max",
              "power_w_median", "power_w_min", "power_w_max",
              "temp_c_median", "temp_c_min", "temp_c_max", "energy_j",
              "fu_util", "dram_util", "mem_stall_frac", "exec_stall_frac",
              "day_of_week", "gpu_in_node", "row_idx", "column_idx",
              "node_in_group"});
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
        .add(static_cast<long long>(loc.node))
        .add(static_cast<long long>(loc.cabinet))
        .add(static_cast<long long>(frame.run_index(i)))
        .add(perf[i])
        .add_repeated(freq[i], 3)
        .add_repeated(power[i], 3)
        .add_repeated(temp[i], 3)
        .add(0.0)
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
  const auto day = csv.find_column("day_of_week");
  const bool has_counters = csv.has_column("fu_util");
  const std::size_t fu = has_counters ? required("fu_util") : 0;
  const std::size_t dram = has_counters ? required("dram_util") : 0;
  const std::size_t mem_stall = has_counters ? required("mem_stall_frac") : 0;
  const std::size_t exec_stall =
      has_counters ? required("exec_stall_frac") : 0;
  const auto gpu_in_node = csv.find_column("gpu_in_node");
  const auto row_idx = csv.find_column("row_idx");
  const auto column_idx = csv.find_column("column_idx");
  const auto node_in_group = csv.find_column("node_in_group");
  const bool has_full_loc = gpu_in_node && row_idx && column_idx &&
                            node_in_group;

  // One record, reused: each row overwrites exactly the fields the
  // schema carries, and the rest keep their defaults.
  RecordFrame frame;
  frame.reserve(csv.rows());
  RunRecord r;
  for (std::size_t row = 0; row < csv.rows(); ++row) {
    const auto int_at = [&](std::size_t col) {
      const long long v = csv.integer(row, col);
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        csv.fail(row, "integer out of range '" +
                          std::string(csv.field(row, col)) + "' in column " +
                          csv.columns()[col]);
      }
      return static_cast<int>(v);
    };
    r.loc.name.assign(csv.field(row, gpu));
    r.loc.node = int_at(node);
    r.loc.cabinet = int_at(cabinet);
    if (has_full_loc) {
      r.loc.gpu = int_at(*gpu_in_node);
      r.loc.row = int_at(*row_idx);
      r.loc.column = int_at(*column_idx);
      r.loc.node_in_group = int_at(*node_in_group);
    }
    // Synthesize a stable per-name GPU index: (node, name hash) suffices
    // for grouping since names are unique per GPU.
    r.gpu_index = static_cast<std::size_t>(
        derive_seed(0x6B5, r.loc.name) % (1ull << 48));
    r.run_index = int_at(run);
    if (day) r.day_of_week = int_at(*day);
    r.perf_ms = csv.number(row, perf);
    r.freq_mhz = csv.number(row, freq);
    r.power_w = csv.number(row, power);
    r.temp_c = csv.number(row, temp);
    if (has_counters) {
      r.counters.fu_util = csv.number(row, fu);
      r.counters.dram_util = csv.number(row, dram);
      r.counters.mem_stall_frac = csv.number(row, mem_stall);
      r.counters.exec_stall_frac = csv.number(row, exec_stall);
    }
    frame.append_row(r);
  }
  return frame;
}

}  // namespace gpuvar
