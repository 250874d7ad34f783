#pragma once
// Per-layer probes that belong to no single workload (probes.cpp).

#include "bench.hpp"

namespace hostbench {

/// run_sweep wall time with a ThreadPool(k), k = 1..opt.threads, as the
/// speed-up over k = 1. Creates and destroys its own pools, so call it
/// while no other pool is alive to keep the live thread count <= threads.
void thread_pool_speedup(const Options& opt, Metrics& out);

/// SIMD kernels under every supported backend (ns per element, plus the
/// active backend) and Cpu::vec pricing on a cost-cache hit vs a miss.
void layer_probes(Metrics& out);

}  // namespace hostbench
