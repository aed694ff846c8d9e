// Structured trace layer: spans and instants on *simulation* time.
//
// The campaign runner is worth observing the way the paper observes
// GPUs — but a tracer that timestamps with a wall clock would make the
// trace bytes depend on when and where the run happened, breaking the
// repo-wide "pure function of (spec, seed)" contract (and the
// analyzer's wall-clock rule). Instead every event carries
//
//   * the *simulation-time* clock of its lane (microseconds), advanced
//     monotonically from device clocks via GPUVAR_TRACE_ADVANCE, and
//   * a per-lane emission sequence number,
//
// so the exported trace is byte-identical at any thread-pool size.
//
// A *lane* is a logical timeline — one per independent unit of work
// (the campaign, each node job), NOT one per OS thread. Worker threads
// adopt a lane for the duration of a task with LaneScope; because a
// lane is owned by exactly one task at a time (the FrameBuilder bucket
// discipline), its event stream is the same whatever thread ran it.
//
// Cost model: when no TraceSink is installed, GPUVAR_TRACE_SPAN and
// GPUVAR_TRACE_INSTANT compile to one thread-local pointer load and a
// branch — no allocation, no locking, no stored state. Library code
// must emit through these macros (the analyzer's raw-trace-api rule),
// never by calling the lane API directly, so the disabled fast path is
// preserved everywhere.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"

namespace gpuvar::obs {

/// Chrome trace-event phase of one event.
enum class TracePhase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
};

/// One trace event. `cat`, `name`, and `arg_key` must be string
/// literals (or otherwise outlive the sink): events are recorded by
/// pointer so the hot path never copies or allocates.
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  TracePhase phase = TracePhase::kInstant;
  /// Lane-local emission sequence (0, 1, 2, ...): the deterministic
  /// total order within a lane, independent of timestamp ties.
  std::uint64_t seq = 0;
  /// Lane-local simulation time, microseconds. Never wall-clock.
  double ts_us = 0.0;
  /// Optional single integer payload (nullptr key = no payload).
  const char* arg_key = nullptr;
  std::int64_t arg_val = 0;
};

/// One logical timeline. Owned by exactly one task at a time; all
/// mutation happens from the owning thread, so members need no lock.
class TraceLane {
 public:
  TraceLane(std::uint32_t id, std::string label)
      : id_(id), label_(std::move(label)) {}

  std::uint32_t id() const { return id_; }
  const std::string& label() const { return label_; }

  /// Advances the lane clock monotonically to simulation time `t`
  /// (no-op if `t` is in the lane's past — ranks within a job settle
  /// at different device clocks).
  void advance_to(Seconds t) {
    const double us = t.value() * 1e6;
    if (us > now_us_) now_us_ = us;
  }

  void emit(const char* cat, const char* name, TracePhase phase,
            const char* arg_key = nullptr, std::int64_t arg_val = 0) {
    events_.push_back(
        TraceEvent{cat, name, phase, next_seq_++, now_us_, arg_key, arg_val});
  }

  std::span<const TraceEvent> events() const { return events_; }

 private:
  std::uint32_t id_;
  std::string label_;
  double now_us_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<TraceEvent> events_;
};

/// Collects lanes. Lane creation locks; event emission does not (each
/// lane has a single owner). Read the lanes back only after the traced
/// work has completed (e.g. after run_campaign returns).
class TraceSink {
 public:
  /// The lane with this id, created (with `label`) on first use. The
  /// returned reference stays valid for the sink's lifetime.
  TraceLane& lane(std::uint32_t id, std::string_view label);

  /// All lanes in ascending id order — the deterministic export order.
  std::vector<const TraceLane*> lanes() const;

  std::size_t lane_count() const;
  std::size_t event_count() const;

 private:
  mutable Mutex mu_;
  std::map<std::uint32_t, std::unique_ptr<TraceLane>> lanes_
      GPUVAR_GUARDED_BY(mu_);
};

/// The installed sink, or nullptr (the macro fast path). Installation
/// must not race with instrumented code: install before the campaign,
/// uninstall (install nullptr) after it completes.
TraceSink* trace();
void install_trace(TraceSink* sink);

/// The lane the calling thread currently owns, or nullptr.
TraceLane* current_lane();

/// RAII adoption of a lane for the current thread (and task). No-op —
/// no allocation, no lock — when no sink is installed. Nests: the
/// previous lane is restored on destruction, so run_campaign can
/// reuse lane 0 under a CLI that already opened it.
class LaneScope {
 public:
  LaneScope(std::uint32_t id, std::string_view label);
  ~LaneScope();

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  TraceLane* prev_;
};

/// RAII span pair on the current lane; emits nothing when no lane is
/// adopted (single branch). Use through GPUVAR_TRACE_SPAN.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name,
            const char* arg_key = nullptr, std::int64_t arg_val = 0)
      : lane_(current_lane()), cat_(cat), name_(name) {
    if (lane_ != nullptr) {
      lane_->emit(cat_, name_, TracePhase::kBegin, arg_key, arg_val);
    }
  }
  ~TraceSpan() {
    if (lane_ != nullptr) lane_->emit(cat_, name_, TracePhase::kEnd);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceLane* lane_;
  const char* cat_;
  const char* name_;
};

/// Instant-event helper behind GPUVAR_TRACE_INSTANT.
inline void trace_instant(const char* cat, const char* name,
                          const char* arg_key = nullptr,
                          std::int64_t arg_val = 0) {
  if (TraceLane* lane = current_lane()) {
    lane->emit(cat, name, TracePhase::kInstant, arg_key, arg_val);
  }
}

/// Installs `sink` for a scope and restores the previous sink on exit
/// (exception-safe teardown for the CLI and tests).
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSink* sink) : prev_(trace()) {
    install_trace(sink);
  }
  ~ScopedTrace() { install_trace(prev_); }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceSink* prev_;
};

}  // namespace gpuvar::obs

#define GPUVAR_OBS_CONCAT_INNER(a, b) a##b
#define GPUVAR_OBS_CONCAT(a, b) GPUVAR_OBS_CONCAT_INNER(a, b)

/// Opens a scoped span on the current lane:
///   GPUVAR_TRACE_SPAN("runner", "measure");
///   GPUVAR_TRACE_SPAN("experiment", "node_job", "node", node);
/// One branch on a thread-local when tracing is off.
#define GPUVAR_TRACE_SPAN(...)                             \
  const ::gpuvar::obs::TraceSpan GPUVAR_OBS_CONCAT(        \
      gpuvar_trace_span_, __LINE__) {                      \
    __VA_ARGS__                                            \
  }

/// Emits an instant event on the current lane (same payload forms as
/// GPUVAR_TRACE_SPAN).
#define GPUVAR_TRACE_INSTANT(...) ::gpuvar::obs::trace_instant(__VA_ARGS__)

/// Advances the current lane's simulation clock to `t` (a Seconds).
#define GPUVAR_TRACE_ADVANCE(t)                                          \
  do {                                                                   \
    if (::gpuvar::obs::TraceLane* gpuvar_obs_lane =                      \
            ::gpuvar::obs::current_lane()) {                             \
      gpuvar_obs_lane->advance_to(t);                                    \
    }                                                                    \
  } while (0)
