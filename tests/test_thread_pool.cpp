#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gpuvar {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  // Sizes around the worker count exercise the shortest claimed runs.
  const std::size_t sizes[] = {2, 3, 5, 8, 9, 1000};
  for (std::size_t n : sizes) {
    std::vector<int> hits(n, 0);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ParallelForSkewedWorkloadVisitsEveryIndexOnce) {
  // One index costs ~100x the others (a hot-rack node job): workers
  // claim runs of indices dynamically, and each still runs exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  constexpr std::size_t kHeavy = 37;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(
        i == kHeavy ? 10000 : 100));
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForStopsClaimingAfterAThrow) {
  // Once an index throws, no task claims another one; the error reaches
  // the caller, and nothing still runs after parallel_for returns.
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  std::atomic<std::size_t> claimed{0};
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      claimed.fetch_add(1);
      if (i == 5) throw std::runtime_error("index 5");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 5");
  }
  const std::size_t at_return = claimed.load();
  // Only indices started before index 5 threw, or in flight when it
  // did, ran; the full range would be 2000.
  EXPECT_LT(at_return, 100u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(claimed.load(), at_return);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(50, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, FreeFunctionParallelFor) {
  std::atomic<long> sum{0};
  parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(10000, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10000);
}

TEST(ThreadPool, ThrowingSubmittedTaskDoesNotWedgeThePool) {
  // A task that throws must still decrement the in-flight count —
  // otherwise wait_idle blocks forever. The exception surfaces there.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed and the pool keeps working.
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // Every worker issuing its own parallel_for would block all workers in
  // wait_idle; the pool must detect re-entrancy and run inline.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(16, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ConcurrentParallelForCallsComplete) {
  // Two client threads driving parallel_for on the same pool at once:
  // completion is per batch, so each call returns exactly when its own
  // chunks finish and both see the full index range.
  ThreadPool pool(4);
  std::atomic<long> a{0};
  std::atomic<long> b{0};
  std::thread ta([&] {
    for (int r = 0; r < 10; ++r) {
      pool.parallel_for(500, [&a](std::size_t) { a.fetch_add(1); });
    }
  });
  std::thread tb([&] {
    for (int r = 0; r < 10; ++r) {
      pool.parallel_for(500, [&b](std::size_t) { b.fetch_add(1); });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 10 * 500);
  EXPECT_EQ(b.load(), 10 * 500);
}

TEST(ThreadPool, ConcurrentParallelForErrorsStayWithTheirCall) {
  // Errors are tracked per batch: a throwing parallel_for on one client
  // thread must never surface in a concurrent, non-throwing call.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> throwing_caught{0};
    std::atomic<int> clean_threw{0};
    std::thread thrower([&] {
      try {
        pool.parallel_for(200, [](std::size_t i) {
          if (i == 101) throw std::runtime_error("mine");
        });
      } catch (const std::runtime_error&) {
        throwing_caught.fetch_add(1);
      }
    });
    std::thread clean([&] {
      try {
        std::atomic<int> n{0};
        pool.parallel_for(200, [&n](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), 200);
      } catch (...) {
        clean_threw.fetch_add(1);
      }
    });
    thrower.join();
    clean.join();
    EXPECT_EQ(throwing_caught.load(), 1);
    EXPECT_EQ(clean_threw.load(), 0);
  }
}

TEST(ThreadPool, StressMixedSubmitAndParallelFor) {
  // TSan workout: concurrent submit/wait_idle/parallel_for traffic from
  // several client threads against one pool, repeated across rounds.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread> clients;
    clients.reserve(3);
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&pool, &total] {
        for (int i = 0; i < 10; ++i) {
          pool.submit([&total] { total.fetch_add(1); });
        }
      });
    }
    for (auto& t : clients) t.join();
    pool.parallel_for(64, [&total](std::size_t) { total.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), 20 * (3 * 10 + 64));
}

}  // namespace
}  // namespace gpuvar
