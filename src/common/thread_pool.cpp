#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "common/require.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gpuvar {

namespace {
// The pool (if any) whose worker_loop is running on this thread. Used to
// detect re-entrant parallel_for calls: a worker that blocked in
// wait_idle would deadlock the pool once every worker did so, therefore
// nested parallel work runs inline on the calling worker instead.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  try {
    for (std::size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread failed to start: join the ones that did before the
    // members die, or destroying a joinable std::thread terminates.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    GPUVAR_ASSERT(!stop_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  // Explicit predicate loop: the analysis cannot see into a wait
  // predicate lambda, but it can see these guarded reads are under mu_.
  while (in_flight_ != 0) cv_idle_.wait(lock.native());
  if (task_error_) {
    std::exception_ptr err = std::exchange(task_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_task_.wait(lock.native());
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The in_flight_ decrement must happen even when the task throws:
    // a leaked count would leave wait_idle blocked forever. The first
    // exception is stashed and rethrown to the next wait_idle caller.
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (err && !task_error_) task_error_ = err;
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t n_workers = size();
  // Run inline when parallelism cannot help — and, critically, when the
  // caller IS one of this pool's workers: blocking a worker in wait_idle
  // deadlocks the pool as soon as every worker does it (nested
  // parallel_for, e.g. a scheduler canary fanning out per-node runs that
  // themselves fan out per GPU).
  if (n == 1 || n_workers == 1 || on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Guided self-scheduling: one task per worker, each claiming a run of
  // 1/(2·tasks) of the indices still unclaimed. Early runs are long and
  // contiguous (locality, few atomics for fine-grained loops such as
  // query scans); the last ones are single indices, so heavy items near
  // the end (hot-rack node jobs) never queue behind each other. Results
  // never depend on the schedule: fn(i) owns its outputs.
  const std::size_t n_tasks = std::min(n, n_workers);

  // Completion is tracked per batch, not via the pool-global wait_idle():
  // that keeps concurrent parallel_for calls from different threads from
  // blocking on each other's tasks, and keeps exceptions stashed by
  // unrelated submit() clients out of this call. Tasks catch their own
  // exceptions, so they never touch task_error_ either.
  struct Batch {
    Mutex mu;
    std::condition_variable cv;
    std::size_t pending GPUVAR_GUARDED_BY(mu);
    // The exception of index `failed_at`.
    std::exception_ptr error GPUVAR_GUARDED_BY(mu);
    std::atomic<std::size_t> next{0};
    // Lowest index that has thrown so far; n while none has. Only
    // lowered, and only under mu; read without it to stop early.
    std::atomic<std::size_t> failed_at;
  };
  Batch batch;
  batch.failed_at.store(n, std::memory_order_relaxed);
  {
    MutexLock lock(batch.mu);
    batch.pending = n_tasks;
  }

  for (std::size_t t = 0; t < n_tasks; ++t) {
    submit([&batch, &fn, n, n_tasks] {
      const auto below_failure = [&batch](std::size_t i) {
        return i < batch.failed_at.load(std::memory_order_relaxed);
      };
      std::size_t begin = batch.next.load(std::memory_order_relaxed);
      // Indices at or above a failure are never started; the claimed
      // ones below it still run, since one of them may fail lower.
      while (begin < n && below_failure(begin)) {
        const std::size_t len =
            std::max<std::size_t>(1, (n - begin) / (2 * n_tasks));
        // On failure the exchange reloads `begin`; retry from there.
        if (!batch.next.compare_exchange_weak(begin, begin + len,
                                              std::memory_order_relaxed)) {
          continue;
        }
        for (std::size_t i = begin; i < begin + len && below_failure(i);
             ++i) {
          try {
            fn(i);
          } catch (...) {
            MutexLock lock(batch.mu);
            if (below_failure(i)) {
              batch.failed_at.store(i, std::memory_order_relaxed);
              batch.error = std::current_exception();
            }
            break;
          }
        }
        begin = batch.next.load(std::memory_order_relaxed);
      }
      // Notify under the lock: once pending hits 0 the waiter may return
      // and destroy `batch`, so the cv must not be touched after unlock.
      MutexLock lock(batch.mu);
      if (--batch.pending == 0) batch.cv.notify_all();
    });
  }
  MutexLock lock(batch.mu);
  while (batch.pending != 0) batch.cv.wait(lock.native());
  if (batch.error) {
    std::exception_ptr err = batch.error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

}  // namespace gpuvar
