#pragma once
// A complete (possibly multi-node) SX-4 system: nodes joined by the IXS,
// plus XMU and IOP device models. Single-node configurations are the common
// case for the paper's benchmarks; multi-node is exercised by tests and the
// IXS ablation bench.

#include <memory>
#include <vector>

#include "common/function_ref.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/ixs.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace ncar {
class ThreadPool;
}

namespace ncar::sxs {

class Machine {
public:
  explicit Machine(const MachineConfig& cfg,
                   ExecutionPolicy policy = default_execution_policy());

  const MachineConfig& config() const { return cfg_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i);
  const Node& node(int i) const;
  const Ixs& ixs() const { return ixs_; }

  /// A parallel region spanning `nodes_used` nodes with `cpus_per_node_used`
  /// CPUs each (the single-system-image macrotasking the IXS enables,
  /// section 2.5). `body(node, rank, cpu)` runs per simulated CPU. The
  /// region ends with a global communications-register barrier over the
  /// IXS; all participating node clocks synchronise to the slowest node.
  /// Returns the region's simulated seconds.
  ///
  /// Nodes run one after another, in node order, on the calling thread, each
  /// running its ranks inline (see Node::parallel) under either policy.
  double parallel(int nodes_used, int cpus_per_node_used,
                  FunctionRef<void(int, int, Cpu&)> body);

  /// All-to-all exchange of `bytes_per_node` across the first `nodes_used`
  /// nodes (spectral transposition and the like); advances their clocks.
  double exchange(int nodes_used, Bytes bytes_per_node);

  /// Seconds to move `bytes` between main memory and the XMU (section 2.3).
  Seconds xmu_transfer_seconds(Bytes bytes) const;

  /// Seconds to move `bytes` through one IOP channel (section 2.4).
  Seconds iop_transfer_seconds(Bytes bytes) const;

  /// Set the host execution policy of all this machine's nodes.
  void set_execution_policy(ExecutionPolicy p);

  /// Use `pool` instead of ThreadPool::global() as every node's host_pool()
  /// (dependency injection for tests); nullptr restores the global pool.
  /// The pool must outlive every model step run on this machine.
  void set_thread_pool(ThreadPool* pool);

  /// Global simulated wall clock: max over node clocks.
  double elapsed_seconds() const;

  void reset();

private:
  MachineConfig cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Ixs ixs_;
};

}  // namespace ncar::sxs
