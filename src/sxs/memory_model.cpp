#include "sxs/memory_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace ncar::sxs {

double MemoryModel::stride_conflict_factor(long stride) const {
  stride = std::labs(stride);
  if (stride <= 2) return 1.0;  // conflict-free by design (section 2.2)
  // A stride-s stream touches banks s apart; with B banks only
  // B / gcd(s, B) distinct banks are visited. Each bank can accept a new
  // request every `bank_cycle_clocks`; the port wants `port_words_per_clock`
  // requests per clock. When the visited banks cannot sustain that rate the
  // stream slows by the ratio.
  const long banks = cfg_.memory_banks;
  const long visited = banks / std::gcd(stride, banks);
  const double demand = port_words_per_clock().value() * cfg_.bank_cycle_clocks;
  const double capacity = static_cast<double>(visited);
  return std::max(cfg_.strided_port_divisor, demand / capacity);
}

Cycles MemoryModel::stream_cycles(long n_words, long stride) const {
  NCAR_REQUIRE(n_words >= 0, "negative word count");
  if (n_words == 0) return Cycles(0.0);
  const double words_per_clock =
      port_words_per_clock().value() / stride_conflict_factor(stride);
  return Cycles(static_cast<double>(n_words) / words_per_clock);
}

Cycles MemoryModel::gather_cycles(long n_words) const {
  NCAR_REQUIRE(n_words >= 0, "negative word count");
  if (n_words == 0) return Cycles(0.0);
  const double words_per_clock =
      port_words_per_clock().value() / cfg_.gather_port_divisor;
  return Cycles(static_cast<double>(n_words) / words_per_clock);
}

Cycles MemoryModel::scatter_cycles(long n_words) const {
  NCAR_REQUIRE(n_words >= 0, "negative word count");
  if (n_words == 0) return Cycles(0.0);
  const double words_per_clock =
      port_words_per_clock().value() / cfg_.scatter_port_divisor;
  return Cycles(static_cast<double>(n_words) / words_per_clock);
}

}  // namespace ncar::sxs
