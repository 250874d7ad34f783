#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace ncar {

struct ThreadPool::Batch {
  Batch(int n_in, const std::function<void(int)>& fn_in)
      : n(n_in), fn(&fn_in), remaining(n_in) {}

  const int n;
  const std::function<void(int)>* fn;
  std::atomic<int> next{0};
  std::atomic<int> remaining;
  std::mutex mu;
  std::condition_variable done;
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

void ThreadPool::run_index(Batch& b, int i) {
  try {
    (*b.fn)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lk(b.mu);
    if (i < b.error_index) {
      b.error_index = i;
      b.error = std::current_exception();
    }
  }
  if (b.remaining.fetch_sub(1) == 1) {
    // Take the batch mutex so the notify cannot slip between the waiter's
    // predicate check and its wait.
    std::lock_guard<std::mutex> lk(b.mu);
    b.done.notify_all();
  }
}

void ThreadPool::claim_and_run(Batch& b) {
  for (;;) {
    const int i = b.next.fetch_add(1);
    if (i >= b.n) return;
    run_index(b, i);
  }
}

void ThreadPool::remove(const std::shared_ptr<Batch>& b) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = std::find(active_.begin(), active_.end(), b);
  if (it != active_.end()) active_.erase(it);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> b;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !active_.empty(); });
      if (stop_) return;
      b = active_.front();
    }
    claim_and_run(*b);
    remove(b);
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  auto b = std::make_shared<Batch>(n, fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_.push_back(b);
  }
  // Waking every worker for a two-index batch is pure contention; wake only
  // as many as could possibly claim an index alongside the caller.
  const int wake =
      std::min(n - 1, static_cast<int>(workers_.size()));
  for (int k = 0; k < wake; ++k) cv_.notify_one();

  claim_and_run(*b);
  remove(b);
  {
    std::unique_lock<std::mutex> lk(b->mu);
    b->done.wait(lk, [&] { return b->remaining.load() == 0; });
  }
  if (b->error) std::rethrow_exception(b->error);
}

int ThreadPool::threads_from_env(const char* value) {
  if (value == nullptr || *value == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  const char* const last = value + std::strlen(value);
  int n = -1;
  const auto [end, ec] = std::from_chars(value, last, n);
  if (ec != std::errc() || end != last || n < 0 || n > 1024) {
    throw config_error(std::string("SX4NCAR_HOST_THREADS=") + value +
                       " is invalid: expected a decimal integer 0..1024 "
                       "(0 and 1 run inline), or unset/empty for the "
                       "hardware thread count");
  }
  return std::max(n, 1);
}

int ThreadPool::configured_host_threads() {
  return threads_from_env(std::getenv("SX4NCAR_HOST_THREADS"));
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
                     const std::function<void(int, int, int)>& fn) {
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
