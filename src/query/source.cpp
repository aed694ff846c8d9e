#include "query/source.hpp"

#include <map>
#include <utility>

#include "common/require.hpp"
#include "common/thread_pool.hpp"  // gpuvar-lint: allow(unused-include)
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/dataset.hpp"
#include "stats/kernels.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar::query {

Source::Source(const RecordFrame& frame) : frame_(&frame) {}

Source::Source(const Dataset& dataset, Predicate where)
    : dataset_(&dataset), where_(std::move(where)) {}

void Source::ensure_plan() const {
  if (planned_) return;
  planned_ = true;
  const auto& shards = dataset_->shards();
  GPUVAR_TRACE_SPAN("query", "plan", "shards",
                    static_cast<std::int64_t>(shards.size()));
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (dataset_->pushdown_enabled() &&
        !where_.may_match(shards[i].header.stats)) {
      // Pushdown: the header ranges prove no row can match, so the
      // payload of this shard is never read.
      ++skipped;
      continue;
    }
    picked_.push_back(i);
  }
  GPUVAR_METRIC_ADD("query.shards_skipped", skipped);
  GPUVAR_METRIC_ADD("query.shards_scanned", picked_.size());

  filtered_ = !where_.is_all();
  if (!filtered_) {
    rows_ = 0;
    for (std::size_t i : picked_) {
      rows_ += static_cast<std::size_t>(shards[i].header.info.rows);
    }
    return;
  }

  // Row-level filter: reads the id and day columns and the pool
  // snapshot. The scan decodes every column, and ensure_columns reuses
  // the decoded shards through the cache.
  const auto decoded = scan();
  match_rows_.resize(picked_.size());
  rows_ = 0;
  for (std::size_t j = 0; j < picked_.size(); ++j) {
    const DecodedShardColumns& d = *decoded[j];
    // One location-match verdict per pool entry (the only part that
    // inspects strings), then vectorized per-row mask kernels: gather
    // the verdict through the id column, AND in the day-range mask,
    // and emit the surviving row indices in one pass each.
    std::vector<std::uint8_t> gpu_ok(d.pool.size(), 0);
    for (std::size_t id = 0; id < d.pool.size(); ++id) {
      gpu_ok[id] = where_.matches_gpu(d.pool[id]) ? std::uint8_t{1}
                                                  : std::uint8_t{0};
    }
    std::vector<std::uint8_t> mask(d.gpu_ids.size());
    stats::kernels::mask_gather_u32(d.gpu_ids, gpu_ok, mask);
    if (!where_.day.is_all()) {
      std::vector<std::uint8_t> day_mask(d.days.size());
      stats::kernels::mask_range_i16(d.days, where_.day.lo, where_.day.hi,
                                     day_mask);
      stats::kernels::mask_and(mask, day_mask, mask);
    }
    stats::kernels::mask_to_indices(mask, match_rows_[j]);
    rows_ += match_rows_[j].size();
  }
  // Shards the row filter emptied out contribute nothing; drop them so
  // later column scans stop paying their decode.
  std::size_t keep = 0;
  for (std::size_t j = 0; j < picked_.size(); ++j) {
    if (match_rows_[j].empty()) continue;
    if (keep != j) {  // guard the self-move when nothing was dropped
      picked_[keep] = picked_[j];
      match_rows_[keep] = std::move(match_rows_[j]);
    }
    ++keep;
  }
  picked_.resize(keep);
  match_rows_.resize(keep);
  GPUVAR_METRIC_ADD("query.rows_matched", rows_);
}

std::vector<std::shared_ptr<const DecodedShardColumns>> Source::scan()
    const {
  GPUVAR_TRACE_SPAN("query", "scan", "shards",
                    static_cast<std::int64_t>(picked_.size()));
  std::vector<std::shared_ptr<const DecodedShardColumns>> out(picked_.size());
  dataset_->scan_pool().parallel_for(picked_.size(), [&](std::size_t j) {
    out[j] = dataset_->fetch(picked_[j]);
  });
  return out;
}

namespace {

/// Appends `col` to `out`: the rows listed in `rows`, or every row when
/// `rows` is null.
template <typename T>
void append_rows(const std::vector<T>& col,
                 const std::vector<std::uint32_t>* rows, std::vector<T>& out) {
  if (rows == nullptr) {
    out.insert(out.end(), col.begin(), col.end());
    return;
  }
  for (std::uint32_t r : *rows) out.push_back(col[r]);
}

}  // namespace

void Source::ensure_columns() const {
  ensure_plan();
  if (assembled_) return;
  assembled_ = true;
  const auto decoded = scan();
  ids_.reserve(rows_);
  runs_.reserve(rows_);
  days_.reserve(rows_);
  for (auto& col : metric_cols_) col.reserve(rows_);
  // First-appearance interning keyed by gpu_index across the ordered
  // merge — RecordFrame::append_row's exact id-assignment rule, which
  // is what makes gpu_ids()/gpus() byte-identical to the materialized
  // frame's.
  std::map<std::size_t, std::uint32_t> id_by_gpu_index;
  for (std::size_t j = 0; j < decoded.size(); ++j) {
    const DecodedShardColumns& d = *decoded[j];
    const std::vector<std::uint32_t>* rows =
        filtered_ ? &match_rows_[j] : nullptr;
    const auto emit = [&](std::size_t r) {
      const GpuRef& g = d.pool[d.gpu_ids[r]];
      const auto [it, inserted] = id_by_gpu_index.try_emplace(
          g.gpu_index, static_cast<std::uint32_t>(pool_.size()));
      if (inserted) pool_.push_back(g);
      ids_.push_back(it->second);
    };
    if (rows != nullptr) {
      for (std::uint32_t r : *rows) emit(r);
    } else {
      for (std::size_t r = 0; r < d.gpu_ids.size(); ++r) emit(r);
    }
    append_rows(d.runs, rows, runs_);
    append_rows(d.days, rows, days_);
    for (std::size_t k = 0; k < metric_cols_.size(); ++k) {
      append_rows(d.metric_cols[k], rows, metric_cols_[k]);
    }
  }
}

std::size_t Source::size() const {
  if (frame_ != nullptr) return frame_->size();
  ensure_plan();
  return rows_;
}

std::size_t Source::gpu_count() const {
  if (frame_ != nullptr) return frame_->gpu_count();
  ensure_columns();
  return pool_.size();
}

std::span<const double> Source::metric(Metric m) const {
  if (frame_ != nullptr) return frame_->metric(m);
  // Metric enumerators (kPerf, kFreq, kPower, kTemp) index the shard's
  // metric columns in serialized order.
  const auto k = static_cast<std::size_t>(m);
  ensure_columns();
  return metric_cols_[k];
}

std::span<const std::uint32_t> Source::gpu_ids() const {
  if (frame_ != nullptr) return frame_->gpu_ids();
  ensure_columns();
  return ids_;
}

std::span<const GpuRef> Source::gpus() const {
  if (frame_ != nullptr) return frame_->gpus();
  ensure_columns();
  return pool_;
}

std::span<const std::int32_t> Source::run_indices() const {
  if (frame_ != nullptr) return frame_->run_indices();
  ensure_columns();
  return runs_;
}

std::span<const std::int16_t> Source::days_of_week() const {
  if (frame_ != nullptr) return frame_->days_of_week();
  ensure_columns();
  return days_;
}

GpuRowGroups group_rows_by_gpu(const Source& source) {
  return group_rows_by_ids(source.gpu_ids(), source.gpus());
}

std::vector<GpuAggregate> per_gpu_medians(const Source& source) {
  GPUVAR_REQUIRE(!source.empty());
  const auto groups = group_rows_by_gpu(source);
  return per_gpu_medians_grouped(groups, source.gpus(),
                                 source.metric(Metric::kPerf),
                                 source.metric(Metric::kFreq),
                                 source.metric(Metric::kPower),
                                 source.metric(Metric::kTemp));
}

}  // namespace gpuvar::query
