// Runtime backend selection: CPUID probe + SX4NCAR_SIMD override.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"
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
  static std::atomic<Backend> backend{backend_from_env(
      std::getenv("SX4NCAR_SIMD"))};
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

bool backend_from_string(const char* name, Backend& out, bool& is_auto) {
  is_auto = false;
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = Backend::Scalar;
  } else if (std::strcmp(name, "sse42") == 0) {
    out = Backend::Sse42;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = Backend::Avx2;
  } else if (std::strcmp(name, "avx512") == 0) {
    out = Backend::Avx512;
  } else if (std::strcmp(name, "auto") == 0) {
    is_auto = true;
    out = best_supported();
  } else {
    return false;
  }
  return true;
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

Backend backend_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return best_supported();
  Backend parsed = Backend::Scalar;
  bool is_auto = false;
  if (!backend_from_string(value, parsed, is_auto)) {
    throw config_error(std::string("SX4NCAR_SIMD=") + value +
                       " is invalid: expected scalar, sse42, avx2, avx512 "
                       "or auto (unset/empty means auto)");
  }
  return supported(parsed) ? parsed : best_supported();
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
