#pragma once
// Headers are model code too: an inline wall-clock read is flagged.
#include <chrono>

namespace bad {

inline double stamp() {
  return static_cast<double>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

}  // namespace bad
