#pragma once
// Operation descriptors charged against the SX-4 timing model.
//
// Benchmark kernels perform their numerics in ordinary C++ and *charge* the
// simulated CPU with a descriptor of what a Fortran compiler would have
// generated for the same loop nest on the SX-4: how many elements, how many
// flops per element, how many words move through the memory port and with
// what access pattern, and which pipe groups the loop keeps busy. The split
// keeps the numerical code clean while the timing model sees exactly the
// architectural quantities the paper's results depend on.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/cost_cache.hpp"

namespace ncar::sxs {

/// A vector-mode loop (vectorised inner loop of length `n`).
struct VectorOp {
  long n = 0;                ///< total elements processed by the loop
  double flops_per_elem = 0; ///< add/multiply flops per element
  double div_per_elem = 0;   ///< divide or square-root results per element

  // Words of 8 bytes moving through the CPU's memory port, per element.
  double load_words = 0;     ///< contiguous / constant-stride loads
  double store_words = 0;    ///< contiguous / constant-stride stores
  double gather_words = 0;   ///< list-vector (indexed) loads
  double scatter_words = 0;  ///< list-vector (indexed) stores

  long load_stride = 1;      ///< stride of the strided load streams
  long store_stride = 1;     ///< stride of the strided store streams
  int pipe_groups = 2;       ///< arithmetic pipe groups kept busy (1..3)

  /// Number of distinct vector instructions in the loop body (used for the
  /// per-chunk issue cost). Zero means "derive from the streams and flops".
  int instructions = 0;

  /// Field-tuple equality: the cost model is a pure function of every field,
  /// so two equal descriptors always price identically (cost-cache key).
  friend bool operator==(const VectorOp&, const VectorOp&) = default;
};

/// A scalar-mode loop (runs on the superscalar unit through the caches).
struct ScalarOp {
  long iters = 0;
  double flops_per_iter = 0;
  double mem_words_per_iter = 0;  ///< loads + stores, 8-byte words
  double other_ops_per_iter = 0;  ///< integer / address / branch instructions
  /// Bytes the loop touches repeatedly; decides the cache-resident fraction.
  double working_set_bytes = 0;
  /// Fraction of memory references that are re-uses of the working set
  /// (1.0 = fully resident blocking, 0.0 = pure streaming).
  double reuse_fraction = 0.0;

  friend bool operator==(const ScalarOp&, const ScalarOp&) = default;
};

/// Hash over the full VectorOp field tuple (doubles hashed by bit pattern).
/// +0.0/-0.0 compare equal but hash apart. That never yields a wrong value,
/// but it can cost a duplicate cache slot, and that lookup counts as a miss.
/// Whether the duplicate arises depends on the table geometry (a probe that
/// happens to reach the equal key's slot is a hit), so the pinned
/// cost-cache counts assume the geometry in common/cost_cache.hpp.
struct VectorOpHash {
  std::size_t operator()(const VectorOp& op) const {
    std::size_t seed = 0;
    hash_combine(seed, static_cast<std::size_t>(op.n));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.flops_per_elem));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.div_per_elem));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.load_words));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.store_words));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.gather_words));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.scatter_words));
    hash_combine(seed, static_cast<std::size_t>(op.load_stride));
    hash_combine(seed, static_cast<std::size_t>(op.store_stride));
    hash_combine(seed, static_cast<std::size_t>(op.pipe_groups));
    hash_combine(seed, static_cast<std::size_t>(op.instructions));
    return seed;
  }
};

struct ScalarOpHash {
  std::size_t operator()(const ScalarOp& op) const {
    std::size_t seed = 0;
    hash_combine(seed, static_cast<std::size_t>(op.iters));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.flops_per_iter));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.mem_words_per_iter));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.other_ops_per_iter));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.working_set_bytes));
    hash_combine(seed, std::bit_cast<std::uint64_t>(op.reuse_fraction));
    return seed;
  }
};

/// Vectorised intrinsic functions with hardware cost models (Table 3) and
/// Cray-Y-MP-equivalent flop weights (used for "equivalent Mflops").
enum class Intrinsic { Exp, Log, Pow, Sin, Cos, Sqrt };

struct IntrinsicCost {
  double hw_flops;      ///< add/multiply work per element in our pipes
  double hw_div;        ///< divide-pipe results per element
  double equiv_flops;   ///< Cray hardware-performance-monitor flop count
};

/// Cost table for vector intrinsic evaluation. The hardware costs reflect
/// polynomial/table evaluation on the add+multiply pipe groups; the
/// equivalent-flop weights are the conventional Cray library counts used to
/// report "Cray Y-MP equivalent Mflops" for RADABS and CCM2.
IntrinsicCost intrinsic_cost(Intrinsic f);

/// Name for reports ("EXP", "LOG", ...), matching the paper's Table 3.
const char* intrinsic_name(Intrinsic f);

}  // namespace ncar::sxs
