// The knob table's translation unit: the one place that reads the
// environment. "getenv" in a string or a comment is no read either.
#include <unistd.h>

#include <cstdlib>

namespace good {

const char* const* process_environment() { return environ; }

const char* knob(const char* name) { return std::getenv(name); }

}  // namespace good
