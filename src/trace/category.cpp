#include "trace/category.hpp"

#include <atomic>
#include <string>

#include "common/knobs.hpp"

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

namespace {

// Relaxed is enough: the mode is set once up front (the knob or a test
// override on the main thread) and only read inside parallel regions.
std::atomic<Mode>& mode_storage() {
  static std::atomic<Mode> storage{[] {
    const std::string name = knobs::process().choice("SX4NCAR_TRACE", "off");
    for (const Mode m : {Mode::Summary, Mode::Full, Mode::Stream}) {
      if (name == to_string(m)) return m;
    }
    return Mode::Off;
  }()};
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
