#include "sxs/execution_policy.hpp"

#include "common/thread_pool.hpp"
#include "simd/simd.hpp"

namespace ncar::sxs {

ExecutionPolicy default_execution_policy() {
  return ThreadPool::configured_host_threads() > 1
             ? ExecutionPolicy::Threaded
             : ExecutionPolicy::Sequential;
}

const char* to_string(ExecutionPolicy p) {
  return p == ExecutionPolicy::Sequential ? "sequential" : "threaded";
}

std::string host_execution_summary() {
  const std::string simd =
      std::string(", simd ") + simd::to_string(simd::active());
  const int threads = ThreadPool::configured_host_threads();
  if (threads <= 1) return "sequential (1 host thread)" + simd;
  return "threaded (" + std::to_string(threads) + " host threads)" + simd;
}

}  // namespace ncar::sxs
