// Reads the environment outside the knob table: each read bypasses the
// table's unknown-name check and its strict parsers.
#include <cstdlib>

#include <unistd.h>

namespace bad {

int threads() {
  const char* v = std::getenv("SX4NCAR_HOST_THREADS");
  return v != nullptr ? std::atoi(v) : 1;
}

bool traced() { return secure_getenv("SX4NCAR_TRACE") != nullptr; }

}  // namespace bad
