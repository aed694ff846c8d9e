#include "query/source.hpp"

#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/dataset.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar::query {

std::vector<std::uint32_t> match_rows(const RecordFrame& frame,
                                      const Predicate& where) {
  const auto pool = frame.gpus();
  std::vector<std::uint8_t> gpu_ok(pool.size(), 0);
  for (std::size_t id = 0; id < pool.size(); ++id) {
    gpu_ok[id] =
        where.matches_gpu(pool[id]) ? std::uint8_t{1} : std::uint8_t{0};
  }
  const auto ids = frame.gpu_ids();
  const auto days = frame.days_of_week();
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (gpu_ok[ids[i]] != 0 && where.day.contains(days[i])) {
      rows.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return rows;
}

Source::Source(const RecordFrame& frame, Predicate where)
    : borrowed_(&frame), where_(std::move(where)) {}

Source::Source(const Dataset& dataset, Predicate where)
    : dataset_(&dataset), where_(std::move(where)) {}

void Source::ensure_plan() const {
  if (planned_) return;
  planned_ = true;
  const bool filtered = !where_.is_all();
  if (borrowed_ != nullptr) {
    if (!filtered) {
      rows_ = borrowed_->size();
      return;
    }
    matched_.push_back(match_rows(*borrowed_, where_));
    rows_ = matched_.front().size();
    return;
  }

  const auto& shards = dataset_->shards();
  GPUVAR_TRACE_SPAN("query", "plan", "shards",
                    static_cast<std::int64_t>(shards.size()));
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!where_.may_match(shards[i].header.stats)) {
      // Pushdown: the header ranges prove no row can match, so the
      // payload of this shard is never read.
      ++skipped;
      continue;
    }
    picked_.push_back(i);
  }
  GPUVAR_METRIC_ADD("query.shards_skipped", skipped);
  GPUVAR_METRIC_ADD("query.shards_scanned", picked_.size());

  if (!filtered) {
    for (std::size_t i : picked_) {
      rows_ += static_cast<std::size_t>(shards[i].header.info.rows);
    }
    return;
  }

  // Row-level filter over the decoded shards; assembly reuses them
  // through the cache.
  const auto parts = scan();
  matched_.resize(picked_.size());
  for (std::size_t j = 0; j < picked_.size(); ++j) {
    matched_[j] = match_rows(*parts[j], where_);
    rows_ += matched_[j].size();
  }
  // Shards the row filter emptied out contribute nothing; drop them so
  // assembly stops paying their decode.
  std::size_t keep = 0;
  for (std::size_t j = 0; j < picked_.size(); ++j) {
    if (matched_[j].empty()) continue;
    if (keep != j) {  // guard the self-move when nothing was dropped
      picked_[keep] = picked_[j];
      matched_[keep] = std::move(matched_[j]);
    }
    ++keep;
  }
  picked_.resize(keep);
  matched_.resize(keep);
  GPUVAR_METRIC_ADD("query.rows_matched", rows_);
}

std::vector<std::shared_ptr<const RecordFrame>> Source::scan() const {
  GPUVAR_TRACE_SPAN("query", "scan", "shards",
                    static_cast<std::int64_t>(picked_.size()));
  std::vector<std::shared_ptr<const RecordFrame>> out(picked_.size());
  dataset_->scan_pool().parallel_for(picked_.size(), [&](std::size_t j) {
    out[j] = dataset_->fetch(picked_[j]);
  });
  return out;
}

ThreadPool& Source::pool() const {
  return dataset_ != nullptr ? dataset_->scan_pool() : ThreadPool::global();
}

std::size_t Source::size() const {
  ensure_plan();
  return rows_;
}

const RecordFrame& Source::frame() const {
  if (borrowed_ != nullptr && where_.is_all()) return *borrowed_;
  if (resolved_ != nullptr) return *resolved_;
  ensure_plan();
  if (where_.is_all()) {
    resolved_ = dataset_->whole_frame();
    return *resolved_;
  }
  auto out = std::make_shared<RecordFrame>();
  out->reserve(rows_);
  if (borrowed_ != nullptr) {
    out->append(*borrowed_, matched_.front());
  } else {
    const auto parts = scan();
    for (std::size_t j = 0; j < parts.size(); ++j) {
      out->append(*parts[j], matched_[j]);
    }
  }
  resolved_ = std::move(out);
  return *resolved_;
}

}  // namespace gpuvar::query
