#pragma once
// Whether the host thread pool serves a node's models.
//
// Parallel regions (Node::parallel, Machine::parallel) run their ranks
// inline under either policy. The policy selects only whether the coarse
// host work uses the pool: the CCM2/MOM numerics, through Node::host_pool()
// and parallel_blocks, and the points of machines::run_sweep. Both split
// their work so that every lane count computes bit-identical results; the
// determinism tests in tests/sxs and tests/integration enforce this.

#include <string>

namespace ncar::sxs {

enum class ExecutionPolicy {
  /// Model numerics and sweep points run on the calling host thread.
  Sequential,
  /// Model numerics and sweep points are split over the host thread pool;
  /// the caller participates and blocks until the work completes.
  Threaded,
};

/// Threaded when ThreadPool::configured_host_threads() (SX4NCAR_HOST_THREADS,
/// parsed once) is above 1, else Sequential.
ExecutionPolicy default_execution_policy();

const char* to_string(ExecutionPolicy p);

/// One-line description of the host execution setup, e.g.
/// "threaded (8 host threads)" — printed by the bench harness mains.
std::string host_execution_summary();

}  // namespace ncar::sxs
