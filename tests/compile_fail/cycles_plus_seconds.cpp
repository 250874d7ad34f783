// Negative-compilation probe: adding cycles to seconds must be a build
// error. CTest builds this target expecting failure (WILL_FAIL); if it ever
// compiles, the dimension system has sprung a leak. The SX4NCAR_COMPILE_TWIN
// build adds cycles to cycles and must compile.
#include "common/quantity.hpp"

int main() {
  const ncar::Cycles c(100.0);
#ifdef SX4NCAR_COMPILE_TWIN
  const ncar::Cycles other(1.0);
#else
  const ncar::Seconds other(1.0);
#endif
  const auto mixed = c + other;  // must not compile unless other is Cycles
  return static_cast<int>(mixed.value());
}
