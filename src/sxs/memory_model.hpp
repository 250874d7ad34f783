#pragma once
// Banked-memory timing model for the SX-4 main memory unit.
//
// Paper section 2.2: up to 1024 banks of 64-bit-wide SSRAM with a two-clock
// bank cycle; each CPU owns a 16 GB/s port into a non-blocking crossbar;
// conflict-free unit-stride and stride-2 access is guaranteed, and "higher
// strides and list vector access benefit from the very short bank cycle
// time" — i.e. they are slower, but not catastrophically so.

#include "sxs/machine_config.hpp"

namespace ncar::sxs {

class MemoryModel {
public:
  /// Holds a reference to `cfg`; construction does no work, so a model for
  /// any bank count is O(1) to build.
  explicit MemoryModel(const MachineConfig& cfg) : cfg_(cfg) {}

  /// Cycles for a strided vector stream of `n` 8-byte words at `stride`.
  /// Unit stride and stride 2 run at full port width; larger strides pay a
  /// bank-conflict factor that grows when the stride folds the request
  /// stream onto few banks (power-of-two strides are the worst case).
  Cycles stream_cycles(long n_words, long stride) const;

  /// Cycles for a gather (list-vector load) of `n` words: one generated
  /// address per element at reduced port width, plus a stochastic
  /// bank-conflict allowance.
  Cycles gather_cycles(long n_words) const;

  /// Cycles for a scatter (list-vector store) of `n` words.
  Cycles scatter_cycles(long n_words) const;

  /// Conflict multiplier for a constant-stride stream (>= 1), evaluated
  /// from the gcd folding of |stride| onto the banks on every call. A Cpu
  /// memoizes each priced VectorOp (common/cost_cache.hpp), so there this
  /// runs only on an op-cost cache miss.
  double stride_conflict_factor(long stride) const;

  /// Full contiguous port width in 8-byte words per clock. Typed: the
  /// dimension survives the public surface (sxsema sema-unit-leak);
  /// internal pricing takes .value() at the point of arithmetic.
  Words port_words_per_clock() const {
    return to_words(cfg_.port_bytes_per_clock);
  }

private:
  const MachineConfig& cfg_;
};

}  // namespace ncar::sxs
