#pragma once
// A shared-memory SX-4 node: up to 32 CPUs behind one non-blocking crossbar,
// with a macrotasking runtime modelled on the SX-4's communications
// registers (paper section 2.1) and Resource Blocks (section 2.6.4).
//
// The runtime accounts cycles per simulated CPU; the simulated elapsed time
// of a parallel region is the maximum over participating CPUs plus the
// barrier cost. On the *host*, rank bodies run inline, in rank order, on the
// calling thread: each is microseconds of cost pricing, less than one host
// thread-pool dispatch. The host pool serves the models' numerics instead
// (host_pool).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/function_ref.hpp"
#include "sxs/cpu.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"

namespace ncar {
class ThreadPool;
}

namespace ncar::sxs {

class Node {
public:
  explicit Node(const MachineConfig& cfg,
                ExecutionPolicy policy = default_execution_policy());

  const MachineConfig& config() const { return cfg_; }
  int cpu_count() const { return static_cast<int>(cpus_.size()); }
  Cpu& cpu(int i);
  const Cpu& cpu(int i) const;

  /// Run `body(rank, cpu)` for ranks [0, ncpu). Returns the simulated
  /// elapsed seconds of the region: max over CPUs of the cycles the body
  /// charged, plus one barrier. Node wall clock advances by the same amount.
  /// Memory-bound work inside the region is inflated by the bank-contention
  /// factor for `ncpu` active CPUs (plus any external load, see
  /// `set_external_active_cpus`).
  ///
  /// Under either ExecutionPolicy the rank bodies run one after another, in
  /// rank order, on the calling thread. A body must not open a region on
  /// this node. If a body throws, its exception propagates and no later
  /// rank runs; every contention factor is restored to 1.0, and the node
  /// clock does not advance.
  double parallel(int ncpu, FunctionRef<void(int, Cpu&)> body);

  /// Run `body(cpu0)` serially on CPU 0; returns and advances by its time.
  double serial(FunctionRef<void(Cpu&)> body);

  /// Simulated cost of one macrotask barrier among `ncpu` CPUs.
  double barrier_seconds(int ncpu) const;

  /// Bank-conflict inflation when `active_cpus` CPUs hit memory at once.
  double contention_factor(int active_cpus) const;

  /// Declare CPUs busy with *other* jobs (the PRODLOAD / ensemble tests):
  /// they contribute to memory contention but do no work here.
  void set_external_active_cpus(int n);
  int external_active_cpus() const { return external_active_; }

  /// Whether host_pool() hands the models a pool. Never changes simulated
  /// results; see execution_policy.hpp.
  void set_execution_policy(ExecutionPolicy p) { policy_ = p; }
  ExecutionPolicy execution_policy() const { return policy_; }

  /// Use `pool` instead of ThreadPool::global() as host_pool() under
  /// Threaded (dependency injection for tests); nullptr restores the global
  /// pool. The pool must outlive every model step run on this node.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// The pool that host numerics of the models on this node (Ccm2, Mom)
  /// split their loops over, see parallel_blocks: under Threaded the
  /// injected pool when set, else ThreadPool::global(); under Sequential
  /// nullptr, so the numerics run inline. Every lane count computes
  /// bit-identical model state.
  ThreadPool* host_pool() const;

  /// Op-cost cache traffic summed over this node's CPUs (the caches are
  /// per-Cpu, see cpu.hpp). reset() leaves them running; they count the
  /// whole process lifetime, which is what the bench reporter records.
  std::uint64_t cost_cache_hits() const;
  std::uint64_t cost_cache_misses() const;

  /// Node wall clock (simulated seconds since construction / reset).
  double elapsed_seconds() const { return elapsed_; }
  /// Advance the node wall clock without CPU work (I/O waits, internode
  /// transfers); `category` files the wait in the runtime attribution.
  void advance_seconds(Seconds s, trace::Category category);

  /// Runtime-overhead track (seconds ticks): barrier and mean-per-rank idle
  /// time of parallel regions plus categorised clock advances. Its total
  /// mirrors elapsed_seconds() bit-exactly; the Other residual of its
  /// attribution table is the mean rank-compute time, which the per-CPU
  /// tracks break down.
  trace::Collector& runtime_trace() { return runtime_trace_; }
  const trace::Collector& runtime_trace() const { return runtime_trace_; }

  /// Reset wall clock and all CPU counters.
  void reset();

private:
  MachineConfig cfg_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<double> delta_;  // per-rank cycles of the current region
  trace::Collector runtime_trace_;
  double elapsed_ = 0;
  int external_active_ = 0;
  ExecutionPolicy policy_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace ncar::sxs
