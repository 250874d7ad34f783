#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

#include "common/knobs.hpp"

namespace ncar {

// The shared state of one parallel_for call. It lives on the caller's
// stack: the caller unlinks it once every index is claimed, then returns
// only after the last attached worker has let go of it.
struct ThreadPool::Batch {
  Batch(int n_in, FunctionRef<void(int)> fn_in) : n(n_in), fn(fn_in) {}

  const int n;
  const FunctionRef<void(int)> fn;
  std::atomic<int> next{0};
  // The rest is guarded by the pool's mu_.
  Batch* queued_next = nullptr;
  int attached = 0;  ///< workers that may still touch this batch
  std::condition_variable detached;
  std::exception_ptr error;
  int error_index = std::numeric_limits<int>::max();
};

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::claim_and_run(Batch& b) {
  for (;;) {
    const int i = b.next.fetch_add(1);
    if (i >= b.n) return;
    try {
      b.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (i < b.error_index) {
        b.error_index = i;
        b.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::unlink(Batch& b) {
  for (Batch** p = &queue_; *p != nullptr; p = &(*p)->queued_next) {
    if (*p == &b) {
      *p = b.queued_next;
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || queue_ != nullptr; });
    if (stop_) return;
    Batch& b = *queue_;
    ++b.attached;
    lk.unlock();
    claim_and_run(b);
    lk.lock();
    // Every index is claimed: no other worker need attach any more.
    unlink(b);
    if (--b.attached == 0) b.detached.notify_one();
  }
}

void ThreadPool::parallel_for(int n, FunctionRef<void(int)> fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  Batch b(n, fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    Batch** tail = &queue_;
    while (*tail != nullptr) tail = &(*tail)->queued_next;
    *tail = &b;
  }
  // Waking every worker for a two-index batch is pure contention; wake only
  // as many as could possibly claim an index alongside the caller.
  const int wake =
      std::min(n - 1, static_cast<int>(workers_.size()));
  for (int k = 0; k < wake; ++k) cv_.notify_one();

  claim_and_run(b);
  {
    // Every index is claimed; once no worker is attached, every claimed
    // index has also finished and the batch may leave the stack.
    std::unique_lock<std::mutex> lk(mu_);
    unlink(b);
    b.detached.wait(lk, [&] { return b.attached == 0; });
  }
  if (b.error) std::rethrow_exception(b.error);
}

int ThreadPool::configured_host_threads() {
  static const int threads = std::max(
      knobs::process().int_range(
          "SX4NCAR_HOST_THREADS",
          static_cast<int>(std::thread::hardware_concurrency())),
      1);
  return threads;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_host_threads());
  return pool;
}

namespace {

int lane_count(const ThreadPool* pool) {
  return pool != nullptr ? pool->thread_count() : 1;
}

}  // namespace

void parallel_blocks(ThreadPool* pool, int n,
                     FunctionRef<void(int, int, int)> fn) {
  if (n <= 0) return;
  const int lanes = std::min(lane_count(pool), n);
  if (lanes == 1) {
    fn(0, 0, n);
    return;
  }
  pool->parallel_for(lanes, [&](int lane) {
    const long lo = static_cast<long>(n) * lane / lanes;
    const long hi = static_cast<long>(n) * (lane + 1) / lanes;
    fn(lane, static_cast<int>(lo), static_cast<int>(hi));
  });
}

LaneArenas::LaneArenas(std::size_t doubles, const ThreadPool* pool)
    : doubles_(doubles) {
  fit(pool);
}

void LaneArenas::fit(const ThreadPool* pool) {
  const auto lanes = static_cast<std::size_t>(lane_count(pool));
  if (arenas_.size() >= lanes) return;
  arenas_.resize(lanes);
  for (Arena& a : arenas_) a.reserve(doubles_);
}

}  // namespace ncar
