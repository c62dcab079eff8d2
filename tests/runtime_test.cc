#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace tsfm::runtime {
namespace {

// Restores the ambient thread count after each test so suites are
// order-independent.
class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = NumThreads(); }
  void TearDown() override { SetNumThreads(saved_); }
  int saved_ = 1;
};

TEST_F(RuntimeTest, EmptyRangeIsNoOp) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });  // inverted
  EXPECT_EQ(calls, 0);
}

TEST_F(RuntimeTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5}) {
    SetNumThreads(threads);
    for (int64_t n : {1, 7, 64, 1000}) {
      for (int64_t grain : {1, 3, 64, 4096}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h.store(0);
        ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
          ASSERT_LE(0, lo);
          ASSERT_LT(lo, hi);
          ASSERT_LE(hi, n);
          for (int64_t i = lo; i < hi; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST_F(RuntimeTest, NonZeroBeginIsRespected) {
  SetNumThreads(3);
  std::atomic<int64_t> sum{0};
  ParallelFor(10, 20, 2, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 10 + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19);
}

TEST_F(RuntimeTest, NestedParallelForRunsInline) {
  SetNumThreads(4);
  std::atomic<int> inner_total{0};
  ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_TRUE(InParallelRegion());
    for (int64_t i = lo; i < hi; ++i) {
      // The nested call must not deadlock on the shared pool; it degrades
      // to a serial loop on the calling worker.
      ParallelFor(0, 10, 1, [&](int64_t ilo, int64_t ihi) {
        inner_total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST_F(RuntimeTest, ExceptionPropagatesToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo == 42) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // Pool must stay usable after an exception.
  std::atomic<int64_t> count{0};
  ParallelFor(0, 50, 1, [&](int64_t lo, int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 50);
}

TEST_F(RuntimeTest, SetNumThreadsIsObserved) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  // Serial mode still runs the body.
  int64_t total = 0;  // no atomics needed with one thread
  ParallelFor(0, 17, 4, [&](int64_t lo, int64_t hi) { total += hi - lo; });
  EXPECT_EQ(total, 17);
}

TEST_F(RuntimeTest, ChunkingIsIndependentOfThreadCount) {
  // The chunk decomposition (number of chunks and their boundaries) is a
  // pure function of (begin, end, grain) — this is the determinism
  // contract's foundation.
  auto boundaries = [](int64_t n, int64_t grain) {
    std::vector<std::pair<int64_t, int64_t>> out;
    std::mutex mu;
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(lo, hi);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int64_t n : {12, 100, 999}) {
    for (int64_t grain : {1, 7, 256}) {
      SetNumThreads(1);
      auto serial = boundaries(n, grain);
      SetNumThreads(2);
      auto two = boundaries(n, grain);
      SetNumThreads(8);
      auto eight = boundaries(n, grain);
      EXPECT_EQ(serial, two) << "n=" << n << " grain=" << grain;
      EXPECT_EQ(serial, eight) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST_F(RuntimeTest, ParallelReduceFoldsInChunkOrder) {
  SetNumThreads(4);
  // Concatenation is order-sensitive; a pool that folded in completion
  // order would scramble it.
  std::string joined = ParallelReduce<std::string>(
      0, 26, 4, std::string(),
      [](int64_t lo, int64_t hi) {
        std::string s;
        for (int64_t i = lo; i < hi; ++i) {
          s.push_back(static_cast<char>('a' + i));
        }
        return s;
      },
      [](std::string acc, const std::string& p) { return acc + p; });
  EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST_F(RuntimeTest, StandaloneThreadPoolRunsSubmittedWork) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // Destructor drains the queue and joins, so after this scope all 100
  // tasks must have run.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

// Workers poll the queue for a while before they block. Each pair of tasks
// here is submitted after an idle gap shorter or longer than that window,
// and the two must run at the same time, so the second needs a worker other
// than the poller. A lost wake-up shows as a pair that never meets (or a
// task that never runs) within the timeout.
TEST_F(RuntimeTest, SubmitWakesWorkersAcrossIdleGaps) {
  struct Pair {
    std::atomic<int> arrived{0};
    std::atomic<int> met{0};
    std::atomic<int> finished{0};
  };
  const auto timeout = std::chrono::seconds(5);
  ThreadPool pool(3);
  for (const int gap_us : {0, 10, 200, 3000}) {
    for (int rep = 0; rep < 10; ++rep) {
      std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
      auto pair = std::make_shared<Pair>();
      for (int t = 0; t < 2; ++t) {
        pool.Submit([pair, timeout] {
          pair->arrived.fetch_add(1);
          const auto until = std::chrono::steady_clock::now() + timeout;
          while (pair->arrived.load() < 2 &&
                 std::chrono::steady_clock::now() < until) {
            std::this_thread::yield();
          }
          if (pair->arrived.load() == 2) pair->met.fetch_add(1);
          pair->finished.fetch_add(1);
        });
      }
      const auto until = std::chrono::steady_clock::now() + 2 * timeout;
      while (pair->finished.load() < 2 &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      ASSERT_EQ(pair->met.load(), 2) << "gap " << gap_us << " us, rep " << rep;
    }
  }
}

TEST_F(RuntimeTest, DefaultNumThreadsIsPositive) {
  EXPECT_GE(DefaultNumThreads(), 1);
}

}  // namespace
}  // namespace tsfm::runtime
