#include "sxs/vector_unit.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ncar::sxs {

Cycles VectorUnit::cycles(const VectorOp& op) const {
  NCAR_REQUIRE(op.n >= 0, "vector op with negative length");
  if (op.n == 0) return Cycles(0.0);
  NCAR_REQUIRE(op.pipe_groups >= 1 && op.pipe_groups <= 3,
               "pipe_groups must be 1..3");

  const double n = static_cast<double>(op.n);
  const long chunks = (op.n + cfg_.vector_length - 1) / cfg_.vector_length;

  // Arithmetic bound: the add and multiply groups each retire
  // `pipes_per_group` results per clock.
  double arith_cycles = 0.0;
  if (op.flops_per_elem > 0) {
    arith_cycles = n * op.flops_per_elem / flops_per_clock(op.pipe_groups);
  }

  // Divide bound: the divide group is its own set of 8 pipes, but each pipe
  // delivers a result only every `divide_cycles_per_result` clocks.
  double div_cycles = 0.0;
  if (op.div_per_elem > 0) {
    const double div_per_clock = static_cast<double>(cfg_.pipes_per_group) /
                                 cfg_.divide_cycles_per_result;
    div_cycles = n * op.div_per_elem / div_per_clock;
  }

  // Memory bound: contiguous/strided streams plus list-vector traffic.
  Cycles mem_cycles =
      mem_.stream_cycles(static_cast<long>(n * op.load_words),
                         op.load_stride) +
      mem_.stream_cycles(static_cast<long>(n * op.store_words),
                         op.store_stride);
  mem_cycles += mem_.gather_cycles(static_cast<long>(n * op.gather_words));
  mem_cycles += mem_.scatter_cycles(static_cast<long>(n * op.scatter_words));

  // Instruction issue: "most vector instructions issue in two clocks".
  int instrs = op.instructions;
  if (instrs == 0) {
    const double streams = op.load_words + op.store_words + op.gather_words +
                           op.scatter_words;
    instrs = static_cast<int>(std::ceil(streams)) +
             static_cast<int>(std::ceil(op.flops_per_elem / 2.0)) +
             static_cast<int>(std::ceil(op.div_per_elem));
    instrs = std::max(instrs, 1);
  }
  const double issue_cycles =
      static_cast<double>(chunks) * instrs * cfg_.vector_issue_clocks;

  // The scalar unit issues ahead of the pipes, so instruction issue overlaps
  // execution of the previous strip; a loop is issue-bound only when issue is
  // the slowest stage.
  return Cycles(cfg_.vector_startup_clocks) +
         std::max({Cycles(arith_cycles), Cycles(div_cycles), mem_cycles,
                   Cycles(issue_cycles)});
}

}  // namespace ncar::sxs
