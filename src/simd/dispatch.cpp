// Runtime backend selection: CPUID probe + SX4NCAR_SIMD override.

#include <atomic>
#include <string>

#include "common/knobs.hpp"
#include "simd/simd.hpp"

namespace ncar::simd {

namespace {

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Backend::Sse42:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Backend::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Backend::Avx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    case Backend::Sse42:
    case Backend::Avx2:
    case Backend::Avx512:
      return false;
#endif
  }
  return false;
}

/// The table compiled for `b`, or null when that TU was built without the
/// instruction set (non-x86 target, toolchain too old).
const KernelTable* compiled_table(Backend b) {
  switch (b) {
    case Backend::Scalar:
      return &scalar_table();
    case Backend::Sse42:
      return sse42_table_impl();
    case Backend::Avx2:
      return avx2_table_impl();
    case Backend::Avx512:
      return avx512_table_impl();
  }
  return nullptr;
}

std::atomic<Backend>& active_storage() {
  static std::atomic<Backend> backend{[] {
    const std::string name = knobs::process().choice("SX4NCAR_SIMD", "auto");
    for (int i = 0; i < kBackendCount; ++i) {
      const auto b = static_cast<Backend>(i);
      if (name == to_string(b)) return supported(b) ? b : best_supported();
    }
    return best_supported();
  }()};
  return backend;
}

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Scalar:
      return "scalar";
    case Backend::Sse42:
      return "sse42";
    case Backend::Avx2:
      return "avx2";
    case Backend::Avx512:
      return "avx512";
  }
  return "scalar";
}

bool supported(Backend b) {
  return cpu_supports(b) && compiled_table(b) != nullptr;
}

Backend best_supported() {
  for (Backend b : {Backend::Avx512, Backend::Avx2, Backend::Sse42}) {
    if (supported(b)) return b;
  }
  return Backend::Scalar;
}

Backend active() { return active_storage().load(std::memory_order_relaxed); }

Backend set_backend(Backend b) {
  const Backend actual = supported(b) ? b : best_supported();
  active_storage().store(actual, std::memory_order_relaxed);
  return actual;
}

const KernelTable& table() { return table_for(active()); }

const KernelTable& table_for(Backend b) {
  const KernelTable* t = supported(b) ? compiled_table(b) : nullptr;
  return t != nullptr ? *t : scalar_table();
}

}  // namespace ncar::simd
