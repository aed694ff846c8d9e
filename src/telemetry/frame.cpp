#include "telemetry/frame.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>
#include <utility>

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

GPUVAR_HOT std::pair<std::uint32_t, bool> RecordFrame::index_gpu(
    std::size_t gpu_index) {
  const auto slot_of = [&](std::size_t key) {
    // Fibonacci hashing spreads consecutive and strided gpu_index values
    // (the common shapes) over the whole table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
        id_shift_);
  };
  if (2 * (gpus_.size() + 1) > id_slots_.size()) {
    // Double (16 slots at first) and re-place the pool's entries. Their
    // keys are distinct, so each takes the first free slot from its hash
    // without a key comparison.
    const std::size_t capacity =
        id_slots_.empty() ? 16 : 2 * id_slots_.size();
    id_slots_.assign(capacity, IdSlot{});
    id_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::size_t id = 0; id < gpus_.size(); ++id) {
      std::size_t i = slot_of(gpus_[id].gpu_index);
      while (id_slots_[i].id != kNoId) i = (i + 1) & (capacity - 1);
      id_slots_[i] = {gpus_[id].gpu_index, static_cast<std::uint32_t>(id)};
    }
  }
  const std::size_t mask = id_slots_.size() - 1;
  for (std::size_t i = slot_of(gpu_index);; i = (i + 1) & mask) {
    IdSlot& s = id_slots_[i];
    if (s.id == kNoId) {
      s = {gpu_index, static_cast<std::uint32_t>(gpus_.size())};
      return {s.id, true};
    }
    if (s.gpu_index == gpu_index) return {s.id, false};
  }
}

GPUVAR_HOT std::uint32_t RecordFrame::intern(std::size_t gpu_index,
                                  const GpuLocation& loc) {
  const auto [id, inserted] = index_gpu(gpu_index);
  if (inserted) gpus_.push_back(GpuRef{gpu_index, loc});
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

template <typename Index>
GPUVAR_HOT void RecordFrame::append_rows(const RecordFrame& src,
                                         const Index* rows, std::size_t n) {
  GPUVAR_REQUIRE_MSG(&src != this, "cannot append a frame to itself");
  const auto at = [&](std::size_t i) -> std::size_t {
    return rows == nullptr ? i : static_cast<std::size_t>(rows[i]);
  };
  // Ids resolve lazily, so only GPUs the appended rows reference intern,
  // and in first-reference order.
  constexpr std::uint32_t kUnmapped = 0xffffffffu;
  std::vector<std::uint32_t> remap(src.gpus_.size(), kUnmapped);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cid = src.gpu_id_[at(i)];
    if (remap[cid] == kUnmapped) {
      const GpuRef& g = src.gpus_[cid];
      remap[cid] = intern(g.gpu_index, g.loc);
    }
    gpu_id_.push_back(remap[cid]);
  }
  const auto copy = [&](auto& dst, const auto& col) {
    if (rows == nullptr) {
      dst.insert(dst.end(), col.begin(),
                 col.begin() + static_cast<std::ptrdiff_t>(n));
      return;
    }
    for (std::size_t i = 0; i < n; ++i) dst.push_back(col[rows[i]]);
  };
  copy(run_, src.run_);
  copy(day_, src.day_);
  copy(perf_, src.perf_);
  copy(freq_, src.freq_);
  copy(power_, src.power_);
  copy(temp_, src.temp_);
  copy(fu_, src.fu_);
  copy(dram_, src.dram_);
  copy(mem_stall_, src.mem_stall_);
  copy(exec_stall_, src.exec_stall_);
}

void RecordFrame::append(const RecordFrame& chunk) {
  append_rows<std::size_t>(chunk, nullptr, chunk.size());
}

void RecordFrame::append(const RecordFrame& chunk,
                         std::span<const std::uint32_t> rows) {
  append_rows(chunk, rows.data(), rows.size());
}

RecordFrame RecordFrame::select(std::span<const std::size_t> rows) const {
  RecordFrame out;
  out.reserve(rows.size());
  out.append_rows(*this, rows.data(), rows.size());
  return out;
}

std::size_t RecordFrame::memory_bytes() const {
  // The engine's shard budget and the query cache both count frames in
  // this unit, so it stays the charge of the frame as it was laid out
  // with a std::map gpu_index index (twelve vectors and the map, plus a
  // node per GPU below), not of the flat table: a charge that moved
  // with the table's doublings would shift the engine's eviction order
  // and query.cache_bytes_peak.
  std::size_t bytes = 12 * sizeof(std::vector<double>) +
                      sizeof(std::map<std::size_t, std::uint32_t>);
  bytes += 8 * perf_.capacity() * sizeof(double);
  bytes += gpu_id_.capacity() * sizeof(std::uint32_t);
  bytes += run_.capacity() * sizeof(std::int32_t);
  bytes += day_.capacity() * sizeof(std::int16_t);
  for (const auto& g : gpus_) {
    bytes += sizeof(GpuRef) + g.loc.name.capacity();
  }
  // One map node per GPU: key + id + ~3 pointers of tree overhead.
  bytes += gpus_.size() *
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
  const auto ids = frame.gpu_ids();
  const auto gpus = frame.gpus();
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

GPUVAR_HOT std::vector<double> per_gpu_median(std::span<const double> column,
                                              const GpuRowGroups& groups) {
  std::vector<double> out;
  out.reserve(groups.order.size());
  std::vector<double> scratch;
  for (std::uint32_t id : groups.order) {
    scratch.clear();
    for (std::size_t i = groups.offsets[id]; i < groups.offsets[id + 1]; ++i) {
      scratch.push_back(column[groups.rows[i]]);
    }
    // Select in place over the shared scratch: no per-GPU copy (the
    // hotpath pass's alloc-in-hot-loop once caught exactly that here)
    // and O(group) selection instead of an O(group log group) sort.
    out.push_back(stats::kernels::median_inplace(scratch));
  }
  return out;
}

GPUVAR_HOT std::vector<GpuAggregate> per_gpu_medians(const RecordFrame& frame) {
  GPUVAR_REQUIRE(!frame.empty());
  const auto groups = group_rows_by_gpu(frame);
  const auto gpus = frame.gpus();
  const auto perf = per_gpu_median(frame.perf_ms(), groups);
  const auto freq = per_gpu_median(frame.freq_mhz(), groups);
  const auto power = per_gpu_median(frame.power_w(), groups);
  const auto temp = per_gpu_median(frame.temp_c(), groups);

  std::vector<GpuAggregate> out;
  out.reserve(gpus.size());
  for (std::size_t j = 0; j < groups.order.size(); ++j) {
    const std::uint32_t id = groups.order[j];
    const GpuRef& g = gpus[id];
    GpuAggregate agg;
    agg.gpu_index = g.gpu_index;
    agg.loc = g.loc;
    agg.runs = static_cast<int>(groups.offsets[id + 1] - groups.offsets[id]);
    agg.perf_ms = perf[j];
    agg.freq_mhz = freq[j];
    agg.power_w = power[j];
    agg.temp_c = temp[j];
    out.push_back(std::move(agg));
  }
  return out;
}

}  // namespace gpuvar
