// A small fixed-size thread pool with a blocking parallel_for.
//
// The experiment runner simulates hundreds to thousands of GPUs; each GPU's
// simulation is independent, so we parallelize across them with a guided
// dynamic schedule: every worker claims the next run of indices from a
// shared counter, runs shrinking as the range drains, so heavy items (hot
// racks) never queue behind each other on one worker. Results are
// deterministic because the work items never share mutable state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gpuvar {

class ThreadPool {
 public:
  /// Creates a pool with `n_threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If a task submitted
  /// via submit() threw, the first such exception is rethrown here (the
  /// count is decremented regardless, so the pool never wedges). The
  /// error slot is pool-wide: on a shared pool (e.g. global()), an
  /// exception from one client's task can surface in another client's
  /// wait_idle. Clients whose tasks may throw should catch inside the
  /// task or use a private pool; parallel_for is unaffected (it tracks
  /// errors and completion per call).
  void wait_idle();

  /// Run fn(i) for i in [0, n), blocking until all complete. Exceptions
  /// thrown by fn are captured; the first one is rethrown on the caller.
  /// Completion and errors are tracked per call, so concurrent
  /// parallel_for calls from different threads neither block on each
  /// other's tasks nor see each other's exceptions. Once fn throws, no
  /// further index is claimed.
  /// Re-entrant: when called from one of this pool's own workers the
  /// loop runs inline instead of blocking the worker (nested fan-out
  /// would otherwise deadlock the pool).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Process-wide shared pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

 private:
  void worker_loop();

  // Written once in the constructor before any concurrent access; const
  // thereafter (size() reads it without the lock).
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_ GPUVAR_GUARDED_BY(mu_);
  std::size_t in_flight_ GPUVAR_GUARDED_BY(mu_) = 0;
  bool stop_ GPUVAR_GUARDED_BY(mu_) = false;
  // First exception thrown by a submit()ed task, if any; handed to the
  // next wait_idle caller.
  std::exception_ptr task_error_ GPUVAR_GUARDED_BY(mu_);
};

/// Convenience wrapper over the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace gpuvar
