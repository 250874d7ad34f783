#pragma once
// Vector-unit timing model.
//
// Paper section 2.1: the vector unit is eight VLSI chips, each holding 32
// elements of every vector register; the chips together form 8-wide pipe
// groups for add/shift, multiply, divide, and logical operations, all of
// which may run concurrently. One add and one multiply group busy gives
// 16 flops/clock = 2 GFLOPS at 8 ns; a concurrent divide "can exceed the
// peak rating".

#include "sxs/machine_config.hpp"
#include "sxs/memory_model.hpp"
#include "sxs/ops.hpp"

namespace ncar::sxs {

class VectorUnit {
public:
  VectorUnit(const MachineConfig& cfg, const MemoryModel& mem)
      : cfg_(cfg), mem_(mem) {}

  /// Cycles to execute a vectorised loop described by `op`.
  ///
  /// The loop is strip-mined into ceil(n / VL) chunks. Each chunk pays an
  /// issue cost per vector instruction; the whole sequence pays one pipeline
  /// startup. Steady-state throughput is the slowest of: the arithmetic pipe
  /// groups, the divide pipes, and the memory port streams. Arithmetic and
  /// memory overlap (loads are chained into the pipes), so the bound is a
  /// max, not a sum.
  ///
  /// `unit_stride` and `contiguous` are the lower of `cycles` and the cycles
  /// of `op` at unit strides or without gather/scatter words: attribution
  /// prices against these variants, evaluated only where they can be cheaper.
  struct Costs {
    Cycles cycles, unit_stride, contiguous;
  };
  Costs costs(const VectorOp& op) const;

  /// Steady-state flops per clock for a loop keeping `pipe_groups` busy.
  double flops_per_clock(int pipe_groups) const {
    return static_cast<double>(cfg_.pipes_per_group) *
           static_cast<double>(pipe_groups);
  }

private:
  const MachineConfig& cfg_;
  const MemoryModel& mem_;
};

}  // namespace ncar::sxs
