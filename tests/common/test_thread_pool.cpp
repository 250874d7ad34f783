#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

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
  // A Machine region fans out per node, each node per rank; the pool must
  // support that nesting without deadlock even when every worker is busy
  // with an outer task.
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

TEST(ThreadPool, ThreadCountParsing) {
  const auto threads_from_env = &ThreadPool::threads_from_env;
  EXPECT_EQ(threads_from_env("8"), 8);
  EXPECT_EQ(threads_from_env("1"), 1);
  EXPECT_EQ(threads_from_env("0"), 1);   // clamped
  EXPECT_GE(threads_from_env(nullptr), 1);
  EXPECT_GE(threads_from_env("nonsense"), 1);
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
