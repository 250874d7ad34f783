#include "trace/category.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace ncar::trace {

const char* to_string(Category c) {
  switch (c) {
    case Category::VectorAdd: return "vector_add";
    case Category::VectorMul: return "vector_mul";
    case Category::VectorDiv: return "vector_div";
    case Category::VectorLogical: return "vector_logical";
    case Category::Scalar: return "scalar";
    case Category::CacheMiss: return "cache_miss";
    case Category::BankConflict: return "bank_conflict";
    case Category::GatherScatter: return "gather_scatter";
    case Category::SltInterp: return "slt_interp";
    case Category::IxsTransfer: return "ixs_transfer";
    case Category::Barrier: return "barrier";
    case Category::IoXmu: return "io_xmu";
    case Category::IoDisk: return "io_disk";
    case Category::IoHippi: return "io_hippi";
    case Category::Idle: return "idle";
    case Category::Other: return "other";
  }
  return "other";
}

bool category_from_string(const char* name, Category& out) {
  if (name == nullptr) return false;
  for (int i = 0; i < kCategoryCount; ++i) {
    const Category c = static_cast<Category>(i);
    if (std::strcmp(name, to_string(c)) == 0) {
      out = c;
      return true;
    }
  }
  return false;
}

Mode mode_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return Mode::Off;
  for (const Mode m : {Mode::Off, Mode::Summary, Mode::Full, Mode::Stream}) {
    if (std::strcmp(value, to_string(m)) == 0) return m;
  }
  throw config_error(std::string("SX4NCAR_TRACE=") + value +
                     " is invalid: expected off, summary, full or stream "
                     "(unset/empty means off)");
}

namespace {

// Relaxed is enough: the mode is set once up front (env or a test override
// on the main thread) and only read inside parallel regions.
std::atomic<Mode>& mode_storage() {
  static std::atomic<Mode> storage{
      mode_from_env(std::getenv("SX4NCAR_TRACE"))};
  return storage;
}

}  // namespace

Mode mode() { return mode_storage().load(std::memory_order_relaxed); }

void set_mode(Mode m) {
  mode_storage().store(m, std::memory_order_relaxed);
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Summary: return "summary";
    case Mode::Full: return "full";
    case Mode::Stream: return "stream";
  }
  return "off";
}

}  // namespace ncar::trace
