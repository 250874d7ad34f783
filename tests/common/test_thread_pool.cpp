#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace {

using ncar::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadDegeneratesToInlineLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int sum = 0;
  // With no workers the body runs on the caller, in index order.
  std::vector<int> order;
  pool.parallel_for(5, [&](int i) {
    order.push_back(i);
    sum += i;
  });
  EXPECT_EQ(sum, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](int) { ran = true; });
  pool.parallel_for(-3, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A pool task steps a model whose numerics call parallel_blocks on the
  // same pool; that nesting must complete without deadlock even when every
  // worker is busy with an outer task.
  ThreadPool pool(3);
  const int outer = 8, inner = 64;
  std::vector<std::atomic<int>> sums(outer);
  pool.parallel_for(outer, [&](int o) {
    pool.parallel_for(inner, [&](int i) {
      sums[static_cast<std::size_t>(o)] += i;
    });
  });
  for (const auto& s : sums) EXPECT_EQ(s.load(), inner * (inner - 1) / 2);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    try {
      pool.parallel_for(32, [&](int i) {
        if (i == 3) throw std::runtime_error("rank 3");
        if (i == 17) throw std::runtime_error("rank 17");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 3");
    }
  }
}

TEST(ThreadPool, AllIndicesFinishBeforeExceptionPropagates) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](int i) {
                                   hits[static_cast<std::size_t>(i)]++;
                                   if (i == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.parallel_for(16, [&](int i) { total += i; });
  }
  EXPECT_EQ(total.load(), 200L * 16 * 15 / 2);
}

TEST(ThreadPool, BackToBackTinyBatchesOutliveLateWorkers) {
  // Each batch lives on the caller's stack. A worker woken for one batch
  // often attaches after the caller has claimed both indices itself; the
  // caller must not return (and reuse that stack for the next batch) while
  // such a worker still holds the batch.
  ThreadPool pool(4);
  long total = 0;
  for (int rep = 0; rep < 10000; ++rep) {
    int hits[2] = {0, 0};
    pool.parallel_for(2, [&](int i) { hits[i] += rep + i; });
    ASSERT_EQ(hits[0], rep);
    ASSERT_EQ(hits[1], rep + 1);
    total += hits[0] + hits[1];
  }
  EXPECT_EQ(total, 10000L * 9999 + 10000);
}

TEST(ThreadPool, ExceptionWaitsForLanesStillRunning) {
  // Index 0 throws at once while the other lanes are still busy; the
  // exception must surface only after every lane has finished with the
  // batch.
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::atomic<int>> finished(4);
    try {
      pool.parallel_for(4, [&](int i) {
        if (i == 0) throw std::runtime_error("lane 0");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished[static_cast<std::size_t>(i)] = 1;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lane 0");
    }
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(finished[static_cast<std::size_t>(i)].load(), 1) << i;
    }
  }
}

TEST(ThreadPool, ThreadCountParsing) {
  const auto threads_from_env = &ThreadPool::threads_from_env;
  EXPECT_GE(threads_from_env(nullptr), 1);  // hardware width
  EXPECT_EQ(threads_from_env(""), threads_from_env(nullptr));
  EXPECT_EQ(threads_from_env("0"), 1);      // 0 and 1 run inline
  EXPECT_EQ(threads_from_env("1"), 1);
  EXPECT_EQ(threads_from_env("2"), 2);
  EXPECT_EQ(threads_from_env("8"), 8);
  EXPECT_EQ(threads_from_env("64"), 64);
  EXPECT_EQ(threads_from_env("1024"), 1024);
  for (const char* bad : {"abc", "4x", "-3", "2000", "seq", "sequential",
                          "threaded", "nonsense", " 4", "+4"}) {
    SCOPED_TRACE(bad);
    try {
      threads_from_env(bad);
      ADD_FAILURE() << "accepted";
    } catch (const ncar::config_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SX4NCAR_HOST_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find("0..1024"), std::string::npos) << what;
    }
  }
}

TEST(ParallelBlocks, LanesCoverTheRangeInContiguousBlocks) {
  for (int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (int n : {0, 1, 2, 5, 64, 171}) {
      const int lanes = std::min(threads, n);
      std::vector<std::atomic<int>> owner(static_cast<std::size_t>(n));
      std::vector<std::atomic<int>> calls(static_cast<std::size_t>(threads));
      for (auto& o : owner) o = -1;
      ncar::parallel_blocks(&pool, n, [&](int lane, int lo, int hi) {
        calls[static_cast<std::size_t>(lane)]++;
        EXPECT_EQ(lo, static_cast<int>(static_cast<long>(n) * lane / lanes));
        EXPECT_EQ(hi,
                  static_cast<int>(static_cast<long>(n) * (lane + 1) / lanes));
        for (int i = lo; i < hi; ++i) {
          EXPECT_EQ(owner[static_cast<std::size_t>(i)].exchange(lane), -1);
        }
      });
      for (const auto& o : owner) EXPECT_GE(o.load(), 0);
      for (int l = 0; l < threads; ++l) {
        EXPECT_EQ(calls[static_cast<std::size_t>(l)].load(), l < lanes ? 1 : 0)
            << "threads " << threads << " n " << n << " lane " << l;
      }
    }
  }
}

TEST(ParallelBlocks, NestedInsideParallelFor) {
  // A sweep point (parallel_for) steps a model whose numerics call
  // parallel_blocks on the same pool.
  ThreadPool pool(4);
  const int outer = 12, n = 1000;
  std::vector<long> sums(outer, 0);
  pool.parallel_for(outer, [&](int o) {
    std::vector<long> lane_sums(static_cast<std::size_t>(pool.thread_count()));
    ncar::parallel_blocks(&pool, n, [&](int lane, int lo, int hi) {
      for (int i = lo; i < hi; ++i) {
        lane_sums[static_cast<std::size_t>(lane)] += i + o;
      }
    });
    for (const long s : lane_sums) sums[static_cast<std::size_t>(o)] += s;
  });
  for (int o = 0; o < outer; ++o) {
    EXPECT_EQ(sums[static_cast<std::size_t>(o)],
              static_cast<long>(n) * (n - 1) / 2 + static_cast<long>(n) * o);
  }
}

TEST(ParallelBlocks, NullPoolRunsOneInlineBlock) {
  std::vector<int> seen;
  ncar::parallel_blocks(nullptr, 9, [&](int lane, int lo, int hi) {
    seen = {lane, lo, hi};
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 0, 9}));
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count(), 1);
  EXPECT_GE(ThreadPool::configured_host_threads(), 1);
}

}  // namespace
