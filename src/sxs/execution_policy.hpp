#pragma once
// How simulated-CPU work bodies are executed on the *host*.
//
// Simulated timings are a pure function of the charged operations: each rank
// charges cycles to its own Cpu, the contention factor is fixed before the
// region starts, and the region time is a max-reduction over ranks. Running
// rank bodies on host threads therefore changes wall-clock time only — the
// simulated seconds, cycle counters, and flop currencies are bit-identical
// under either policy (the determinism tests in tests/sxs and
// tests/integration enforce this).

#include <string>

namespace ncar::sxs {

enum class ExecutionPolicy {
  /// Rank bodies run one after another on the calling host thread.
  Sequential,
  /// Rank bodies are dispatched to the host thread pool; the caller
  /// participates and blocks until the region completes.
  Threaded,
};

/// Policy selected by the SX4NCAR_HOST_THREADS environment variable:
/// unset → Threaded with hardware_concurrency host threads; a value of
/// 0 or 1 → Sequential; larger values → Threaded with that many threads.
ExecutionPolicy default_execution_policy();

/// Pure parsing helper (exposed for tests; `value` is the raw environment
/// string, or nullptr when the variable is unset). The thread count comes
/// from ThreadPool::threads_from_env.
ExecutionPolicy policy_from_env(const char* value);

const char* to_string(ExecutionPolicy p);

/// One-line description of the host execution setup, e.g.
/// "threaded (8 host threads)" — printed by the bench harness mains.
std::string host_execution_summary();

}  // namespace ncar::sxs
