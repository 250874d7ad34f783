#pragma once
// A small fork-join host thread pool for the coarse host work — the points
// of a design sweep — plus parallel_blocks, which splits the host numerics
// of the application models over the same pool.
//
// The pool distributes the indices of a `parallel_for` through a shared
// atomic counter, so idle threads steal whatever indices remain — a blocked
// caller never waits on an *unclaimed* index, it claims and runs it itself.
// That property makes nested calls (a pool task that steps a model, whose
// numerics call parallel_blocks, or that runs a sweep, on the same pool)
// deadlock-free even with a single host thread: every batch is fully driven
// by at least its initiating thread.
//
// The pool moves *host* work around; it must never change *simulated*
// results. Callers are responsible for handing it bodies whose side effects
// are confined to per-index state (see parallel_blocks).

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/function_ref.hpp"

namespace ncar {

class ThreadPool {
public:
  /// A pool of `threads` host threads in total, counting the caller of
  /// `parallel_for`; `threads - 1` workers are spawned. `threads <= 1`
  /// spawns no workers, and `parallel_for` degenerates to an inline loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Host threads participating in parallel_for, including the caller.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run `fn(i)` for every i in [0, n), concurrently, returning when all
  /// calls have completed. The calling thread participates. If any calls
  /// throw, the exception thrown by the *lowest* index is rethrown (after
  /// every claimed index has finished), so propagation is deterministic.
  void parallel_for(int n, FunctionRef<void(int)> fn);

  /// The process-wide pool, lazily created with `configured_host_threads()`
  /// threads on first use.
  static ThreadPool& global();

  /// Host thread count from SX4NCAR_HOST_THREADS (common/knobs.hpp),
  /// parsed once on first use: unset or empty is
  /// std::thread::hardware_concurrency(), 0 and 1 are 1 (inline).
  static int configured_host_threads();

private:
  struct Batch;

  void worker_loop();
  void claim_and_run(Batch& b);
  void unlink(Batch& b);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// Batches that may still have unclaimed indices, oldest first, linked
  /// through Batch::queued_next. Each lives on its caller's stack.
  Batch* queue_ = nullptr;
  bool stop_ = false;
};

/// Split [0, n) into one contiguous block per lane — a lane per pool
/// thread, one when `pool` is null, never more than n — and run
/// `fn(lane, lo, hi)` once per block, lane l covering [n*l/lanes,
/// n*(l+1)/lanes). Lanes run concurrently on the pool; with a null pool or
/// one lane this is the inline call fn(0, 0, n). Every index belongs to
/// exactly one lane, so a body that writes only the outputs of its own
/// indices computes the same values at every lane count. `lane` is unique
/// among the blocks of one call: per-lane scratch indexed by it is never
/// shared.
void parallel_blocks(ThreadPool* pool, int n,
                     FunctionRef<void(int, int, int)> fn);

/// One scratch Arena per lane of parallel_blocks, so lanes never share
/// workspace. fit() is the only call that allocates, and only when the
/// lane count grows; hot paths index it.
class LaneArenas {
public:
  /// Arenas of `doubles` each for the lanes of `pool`.
  LaneArenas(std::size_t doubles, const ThreadPool* pool);

  /// Grow to one arena per lane of `pool`; no-op when there are enough.
  void fit(const ThreadPool* pool);

  Arena& operator[](int lane) {
    return arenas_[static_cast<std::size_t>(lane)];
  }

private:
  std::size_t doubles_;
  std::vector<Arena> arenas_;
};

}  // namespace ncar
