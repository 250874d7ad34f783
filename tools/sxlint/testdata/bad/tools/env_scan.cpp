// A tool that walks the environment itself.
#include <unistd.h>

#include <cstring>

int count_knobs() {
  int n = 0;
  for (char** e = environ; *e != nullptr; ++e) {
    n += std::strncmp(*e, "SX4NCAR_", 8) == 0 ? 1 : 0;
  }
  return n;
}
