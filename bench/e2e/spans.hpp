// Host-time spans for the end-to-end benchmark's traced run.
//
// The benchmark times each layer from outside the library: a Span wraps
// one call into a layer's public entry point and records its name, its
// steady_clock start and end, the span that caused it, and the id of the
// op it belongs to (every span of one op shares that id). Spans stay in
// memory and are written as JSON when the run ends; each span's self
// time is its duration minus the union of its children's intervals, so
// children that ran in parallel on pool workers are not double-counted.
//
// A Span on a null SpanLog does nothing, which is how the untraced run
// executes the very same op code without recording anything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gpuvar::e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t op = 0;
  const char* name = "";     ///< a string literal
  std::int64_t start_ns = 0;  ///< since the log's origin
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  SpanLog();

  /// Thread-safe: pool workers record their own spans.
  void add(const SpanRecord& record);
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  std::int64_t now_ns() const;

  /// Durations (ms) of every span named `name`, in id order; `op`
  /// restricts them to one op unless it is kAnyOp.
  static constexpr std::uint64_t kAnyOp = ~std::uint64_t{0};
  std::vector<double> durations_ms(std::string_view name,
                                   std::uint64_t op = kAnyOp) const;
  /// Sum of durations_ms(name, op).
  double total_ms(std::string_view name, std::uint64_t op = kAnyOp) const;

  /// {"spans": [...], "by_name": {...}} with per-span and per-name self
  /// time.
  void write_json(std::ostream& out) const;

 private:
  std::vector<SpanRecord> sorted() const;

  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GPUVAR_GUARDED_BY(mu_);
};

/// Records one span for its lifetime. The parent is the span this thread
/// has open, unless one is given (a pool worker names the span of the
/// caller that fanned out to it).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t op);
  Span(SpanLog* log, const char* name, std::uint64_t op,
       std::uint64_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanLog* log_;
  SpanRecord record_;
  std::uint64_t enclosing_ = 0;  ///< this thread's open span before us
};

}  // namespace gpuvar::e2e
