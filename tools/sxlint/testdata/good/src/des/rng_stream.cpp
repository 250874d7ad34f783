// GOOD fixture (no-nondeterminism): this file is the des RNG layer itself
// (src/des/rng*), a blessed home for raw std engine state, and it iterates
// an ordered std::map. Nothing here may be flagged.
#include <map>
#include <random>

namespace des {
class RngStream {
 public:
  explicit RngStream(unsigned long seed) : engine_(seed) {}
  double draw() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

 private:
  std::mt19937_64 engine_;  // exempt: lives inside src/des/rng*
};

inline double checksum(const std::map<int, double>& ordered) {
  double sum = 0.0;
  for (const auto& entry : ordered) {  // ordered: deterministic
    sum += entry.second;
  }
  return sum;
}
}  // namespace des
