// BAD fixture (no-nondeterminism): a raw std random engine living outside
// the RNG layers. Draws must come from a named des::RngStream so replays
// and partitioned streams stay reproducible.
#include <random>

namespace machines {
inline unsigned noisy_latency(unsigned bound) {
  std::mt19937_64 gen(42);  // engine outside des::RngStream
  return static_cast<unsigned>(gen() % bound);
}
}  // namespace machines
