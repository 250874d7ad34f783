// Negative-compilation probe: the charge entry points take their
// trace::Category without a default, so a charge that names none is a build
// error instead of a silent `other` attribution row. One definition picks
// the entry point (PROBE_charge_cycles, PROBE_charge_seconds,
// PROBE_advance_seconds). CTest builds each expecting failure (WILL_FAIL),
// and builds a twin with SX4NCAR_COMPILE_TWIN that writes the category and
// must compile, so the failure can only come from the missing argument.
#include "sxs/node.hpp"

#ifdef SX4NCAR_COMPILE_TWIN
#define CATEGORY , ncar::trace::Category::Scalar
#else
#define CATEGORY
#endif

int main() {
  ncar::sxs::Node node(ncar::sxs::MachineConfig::sx4_benchmarked());
#if defined(PROBE_charge_cycles)
  node.cpu(0).charge_cycles(ncar::Cycles(1.0) CATEGORY);
#elif defined(PROBE_charge_seconds)
  node.cpu(0).charge_seconds(ncar::Seconds(1e-9) CATEGORY);
#elif defined(PROBE_advance_seconds)
  node.advance_seconds(ncar::Seconds(1e-9) CATEGORY);
#else
#error "define one PROBE_<entry point>"
#endif
  return 0;
}
