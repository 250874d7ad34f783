#include "sxs/execution_policy.hpp"

#include <cstdlib>
#include <cstring>

#include "common/thread_pool.hpp"
#include "simd/simd.hpp"

namespace ncar::sxs {

ExecutionPolicy policy_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return ExecutionPolicy::Threaded;
  if (std::strcmp(value, "seq") == 0 || std::strcmp(value, "sequential") == 0) {
    return ExecutionPolicy::Sequential;
  }
  if (std::strcmp(value, "threaded") == 0) return ExecutionPolicy::Threaded;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end != value && *end == '\0' && n <= 1) {
    return ExecutionPolicy::Sequential;
  }
  return ExecutionPolicy::Threaded;
}

ExecutionPolicy default_execution_policy() {
  return policy_from_env(std::getenv("SX4NCAR_HOST_THREADS"));
}

const char* to_string(ExecutionPolicy p) {
  return p == ExecutionPolicy::Sequential ? "sequential" : "threaded";
}

std::string host_execution_summary() {
  const std::string simd =
      std::string(", simd ") + simd::to_string(simd::active());
  if (default_execution_policy() == ExecutionPolicy::Sequential) {
    return "sequential (1 host thread)" + simd;
  }
  const int threads = ThreadPool::configured_host_threads();
  return "threaded (" + std::to_string(threads) + " host thread" +
         (threads == 1 ? "" : "s") + ")" + simd;
}

}  // namespace ncar::sxs
