#pragma once
// Scalar (superscalar RISC) unit timing model.
//
// Paper section 2.1: the scalar unit issues up to two instructions per
// clock through 64 KB instruction and data caches, with branch prediction
// and out-of-order execution. Scalar-style code (RFFT, HINT, non-vectorised
// CSHIFT in POP) runs here instead of on the vector pipes — that contrast
// is the entire point of the coding-style benchmarks.

#include "sxs/machine_config.hpp"
#include "sxs/ops.hpp"

namespace ncar::sxs {

class ScalarUnit {
public:
  explicit ScalarUnit(const MachineConfig& cfg) : cfg_(cfg) {}

  /// Cycles to execute a scalar loop described by `op`.
  ///
  /// Instruction cost: (flops + memory refs + other) per iteration divided
  /// by the issue width. Memory cost: references that miss the data cache
  /// pay `cache_miss_clocks`. The miss rate is analytic:
  ///   resident part  — the fraction `reuse_fraction` of references that hit
  ///                    a working set; it misses only to the extent the
  ///                    working set exceeds the cache;
  ///   streaming part — the remaining references miss once per cache line.
  Cycles cycles(const ScalarOp& op) const;

  /// The data-cache miss-stall portion of `cycles` (a pure function of the
  /// descriptor; Cpu caches it beside `cycles` as the cache_miss split).
  Cycles miss_cycles(const ScalarOp& op) const;

  /// The analytic miss rate used by `cycles` (exposed for tests, which
  /// compare it against the CacheSim reference on synthetic streams).
  double miss_rate(const ScalarOp& op) const;

private:
  const MachineConfig& cfg_;
};

}  // namespace ncar::sxs
