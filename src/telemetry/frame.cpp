#include "telemetry/frame.hpp"

#include <algorithm>
#include <tuple>

#include "common/hot.hpp"
#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/kernels.hpp"
#include "common/location.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

std::span<const double> RecordFrame::metric(Metric m) const {
  switch (m) {
    case Metric::kPerf:
      return perf_;
    case Metric::kFreq:
      return freq_;
    case Metric::kPower:
      return power_;
    case Metric::kTemp:
      return temp_;
  }
  return {};
}

ProfilerCounters RecordFrame::counters(std::size_t row) const {
  ProfilerCounters c;
  c.fu_util = fu_[row];
  c.dram_util = dram_[row];
  c.mem_stall_frac = mem_stall_[row];
  c.exec_stall_frac = exec_stall_[row];
  return c;
}

RunRecord RecordFrame::row(std::size_t row) const {
  RunRecord r;
  const GpuRef& g = gpus_[gpu_id_[row]];
  r.gpu_index = g.gpu_index;
  r.loc = g.loc;
  r.run_index = run_[row];
  r.day_of_week = day_[row];
  r.perf_ms = perf_[row];
  r.freq_mhz = freq_[row];
  r.power_w = power_[row];
  r.temp_c = temp_[row];
  r.counters = counters(row);
  return r;
}

void RecordFrame::reserve(std::size_t rows) {
  perf_.reserve(rows);
  freq_.reserve(rows);
  power_.reserve(rows);
  temp_.reserve(rows);
  fu_.reserve(rows);
  dram_.reserve(rows);
  mem_stall_.reserve(rows);
  exec_stall_.reserve(rows);
  gpu_id_.reserve(rows);
  run_.reserve(rows);
  day_.reserve(rows);
}

GPUVAR_HOT std::uint32_t RecordFrame::intern(std::size_t gpu_index,
                                  const GpuLocation& loc) {
  const auto it = id_by_gpu_index_.find(gpu_index);
  if (it != id_by_gpu_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(gpus_.size());
  gpus_.push_back(GpuRef{gpu_index, loc});
  id_by_gpu_index_.emplace(gpu_index, id);
  return id;
}

GPUVAR_HOT void RecordFrame::append_row(const RunRecord& r) {
  gpu_id_.push_back(intern(r.gpu_index, r.loc));
  run_.push_back(r.run_index);
  day_.push_back(static_cast<std::int16_t>(r.day_of_week));
  perf_.push_back(r.perf_ms);
  freq_.push_back(r.freq_mhz);
  power_.push_back(r.power_w);
  temp_.push_back(r.temp_c);
  fu_.push_back(r.counters.fu_util);
  dram_.push_back(r.counters.dram_util);
  mem_stall_.push_back(r.counters.mem_stall_frac);
  exec_stall_.push_back(r.counters.exec_stall_frac);
}

GPUVAR_HOT void RecordFrame::append(const RecordFrame& chunk) {
  GPUVAR_REQUIRE_MSG(&chunk != this, "cannot append a frame to itself");
  reserve(size() + chunk.size());
  // Remap the chunk's pool ids through this frame's interning; ids are
  // resolved lazily so only GPUs the chunk actually references intern.
  std::vector<std::uint32_t> remap(chunk.gpus_.size(),
                                   std::uint32_t(0xffffffffu));
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const std::uint32_t cid = chunk.gpu_id_[i];
    if (remap[cid] == 0xffffffffu) {
      const GpuRef& g = chunk.gpus_[cid];
      remap[cid] = intern(g.gpu_index, g.loc);
    }
    gpu_id_.push_back(remap[cid]);
  }
  run_.insert(run_.end(), chunk.run_.begin(), chunk.run_.end());
  day_.insert(day_.end(), chunk.day_.begin(), chunk.day_.end());
  perf_.insert(perf_.end(), chunk.perf_.begin(), chunk.perf_.end());
  freq_.insert(freq_.end(), chunk.freq_.begin(), chunk.freq_.end());
  power_.insert(power_.end(), chunk.power_.begin(), chunk.power_.end());
  temp_.insert(temp_.end(), chunk.temp_.begin(), chunk.temp_.end());
  fu_.insert(fu_.end(), chunk.fu_.begin(), chunk.fu_.end());
  dram_.insert(dram_.end(), chunk.dram_.begin(), chunk.dram_.end());
  mem_stall_.insert(mem_stall_.end(), chunk.mem_stall_.begin(),
                    chunk.mem_stall_.end());
  exec_stall_.insert(exec_stall_.end(), chunk.exec_stall_.begin(),
                     chunk.exec_stall_.end());
}

GPUVAR_HOT RecordFrame RecordFrame::select(std::span<const std::size_t> rows) const {
  RecordFrame out;
  out.reserve(rows.size());
  std::vector<std::uint32_t> remap(gpus_.size(), std::uint32_t(0xffffffffu));
  for (std::size_t row : rows) {
    const std::uint32_t cid = gpu_id_[row];
    if (remap[cid] == 0xffffffffu) {
      const GpuRef& g = gpus_[cid];
      remap[cid] = out.intern(g.gpu_index, g.loc);
    }
    out.gpu_id_.push_back(remap[cid]);
    out.run_.push_back(run_[row]);
    out.day_.push_back(day_[row]);
    out.perf_.push_back(perf_[row]);
    out.freq_.push_back(freq_[row]);
    out.power_.push_back(power_[row]);
    out.temp_.push_back(temp_[row]);
    out.fu_.push_back(fu_[row]);
    out.dram_.push_back(dram_[row]);
    out.mem_stall_.push_back(mem_stall_[row]);
    out.exec_stall_.push_back(exec_stall_[row]);
  }
  return out;
}

std::size_t RecordFrame::memory_bytes() const {
  std::size_t bytes = sizeof(RecordFrame);
  bytes += 8 * perf_.capacity() * sizeof(double);
  bytes += gpu_id_.capacity() * sizeof(std::uint32_t);
  bytes += run_.capacity() * sizeof(std::int32_t);
  bytes += day_.capacity() * sizeof(std::int16_t);
  for (const auto& g : gpus_) {
    bytes += sizeof(GpuRef) + g.loc.name.capacity();
  }
  // One map node per GPU: key + id + ~3 pointers of tree overhead.
  bytes += id_by_gpu_index_.size() *
           (sizeof(std::size_t) + sizeof(std::uint32_t) + 3 * sizeof(void*));
  return bytes;
}

FrameBuilder::FrameBuilder(std::size_t bucket_count)
    : buckets_(bucket_count) {}

RecordFrame FrameBuilder::finish() {
  RecordFrame out;
  std::size_t total = 0;
  for (const auto& b : buckets_) total += b.size();
  GPUVAR_TRACE_SPAN("frame", "merge_buckets", "rows",
                    static_cast<std::int64_t>(total));
  GPUVAR_METRIC_ADD("frame.rows_merged", total);
  GPUVAR_METRIC_MAX("frame.buckets", buckets_.size());
  out.reserve(total);
  for (auto& b : buckets_) {
    out.append(b);
    b = RecordFrame();  // release bucket storage as we fold it in
  }
  return out;
}

GPUVAR_HOT GpuRowGroups group_rows_by_gpu(const RecordFrame& frame) {
  return group_rows_by_ids(frame.gpu_ids(), frame.gpus());
}

GPUVAR_HOT GpuRowGroups group_rows_by_ids(std::span<const std::uint32_t> ids,
                                          std::span<const GpuRef> gpus) {
  const std::size_t n = ids.size();
  const std::size_t k = gpus.size();

  GpuRowGroups g;
  g.offsets.assign(k + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++g.offsets[ids[i] + 1];
  for (std::size_t id = 0; id < k; ++id) g.offsets[id + 1] += g.offsets[id];

  g.rows.resize(n);
  std::vector<std::size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) g.rows[cursor[ids[i]]++] = i;

  g.order.resize(k);
  for (std::size_t id = 0; id < k; ++id) {
    g.order[id] = static_cast<std::uint32_t>(id);
  }
  std::sort(g.order.begin(), g.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              // gpu_index is unique per pool entry; the id tie-break can
              // never fire but keeps the comparator visibly total.
              return std::tie(gpus[a].gpu_index, a) <
                     std::tie(gpus[b].gpu_index, b);
            });
  return g;
}

GPUVAR_HOT std::vector<GpuAggregate> per_gpu_medians(const RecordFrame& frame) {
  const auto groups = group_rows_by_gpu(frame);
  return per_gpu_medians_grouped(groups, frame.gpus(), frame.perf_ms(),
                                 frame.freq_mhz(), frame.power_w(),
                                 frame.temp_c());
}

GPUVAR_HOT std::vector<GpuAggregate> per_gpu_medians_grouped(
    const GpuRowGroups& groups, std::span<const GpuRef> gpus,
    std::span<const double> perf_ms, std::span<const double> freq_mhz,
    std::span<const double> power_w, std::span<const double> temp_c) {
  GPUVAR_REQUIRE(!perf_ms.empty());

  std::vector<GpuAggregate> out;
  out.reserve(gpus.size());
  std::vector<double> scratch;
  const auto median_of = [&](std::span<const double> column,
                             std::span<const std::size_t> rows) {
    scratch.clear();
    scratch.reserve(rows.size());
    for (std::size_t row : rows) scratch.push_back(column[row]);
    // Select in place over the shared scratch: no per-call copy (the
    // hotpath pass's alloc-in-hot-loop once caught exactly that here)
    // and O(group) selection instead of an O(group log group) sort.
    return stats::kernels::median_inplace(scratch);
  };
  for (std::uint32_t id : groups.order) {
    const std::span<const std::size_t> rows{
        groups.rows.data() + groups.offsets[id],
        groups.offsets[id + 1] - groups.offsets[id]};
    const GpuRef& g = gpus[id];
    GpuAggregate agg;
    agg.gpu_index = g.gpu_index;
    agg.loc = g.loc;
    agg.runs = static_cast<int>(rows.size());
    agg.perf_ms = median_of(perf_ms, rows);
    agg.freq_mhz = median_of(freq_mhz, rows);
    agg.power_w = median_of(power_w, rows);
    agg.temp_c = median_of(temp_c, rows);
    out.push_back(std::move(agg));
  }
  return out;
}

GPUVAR_HOT std::span<const double> metric_column(const RecordFrame& frame, Metric m) {
  return frame.metric(m);
}

}  // namespace gpuvar
