#include "sxs/vector_unit.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ncar::sxs {

VectorUnit::Costs VectorUnit::costs(const VectorOp& op) const {
  NCAR_REQUIRE(op.n >= 0, "vector op with negative length");
  if (op.n == 0) return {};
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
  const auto streams = [&](long load_stride, long store_stride) {
    return mem_.stream_cycles(static_cast<long>(n * op.load_words),
                              load_stride) +
           mem_.stream_cycles(static_cast<long>(n * op.store_words),
                              store_stride);
  };
  const Cycles strided = streams(op.load_stride, op.store_stride);
  const Cycles gather =
      mem_.gather_cycles(static_cast<long>(n * op.gather_words));
  const Cycles scatter =
      mem_.scatter_cycles(static_cast<long>(n * op.scatter_words));
  const Cycles mem_cycles = strided + gather + scatter;

  // Instruction issue: "most vector instructions issue in two clocks".
  const auto issue_of = [&](double gather_words, double scatter_words) {
    int instrs = op.instructions;
    if (instrs == 0) {
      const double words =
          op.load_words + op.store_words + gather_words + scatter_words;
      instrs = static_cast<int>(std::ceil(words)) +
               static_cast<int>(std::ceil(op.flops_per_elem / 2.0)) +
               static_cast<int>(std::ceil(op.div_per_elem));
      instrs = std::max(instrs, 1);
    }
    return Cycles(static_cast<double>(chunks) * instrs *
                  cfg_.vector_issue_clocks);
  };
  const Cycles issue_cycles = issue_of(op.gather_words, op.scatter_words);

  // The scalar unit issues ahead of the pipes, so instruction issue overlaps
  // execution of the previous strip; a loop is issue-bound only when issue is
  // the slowest stage.
  const Cycles compute = std::max(Cycles(arith_cycles), Cycles(div_cycles));
  const auto total = [&](Cycles mem, Cycles issue) {
    return Cycles(cfg_.vector_startup_clocks) + std::max({compute, mem, issue});
  };
  Costs c;
  c.cycles = c.unit_stride = c.contiguous = total(mem_cycles, issue_cycles);
  // A variant shrinks the memory (and issue) term: cheaper only if it binds.
  if ((op.load_stride != 1 || op.store_stride != 1) &&
      mem_cycles > std::max(compute, issue_cycles)) {
    c.unit_stride = std::min(
        c.cycles, total(streams(1, 1) + gather + scatter, issue_cycles));
  }
  if ((op.gather_words > 0 || op.scatter_words > 0) &&
      std::max(mem_cycles, issue_cycles) > compute) {
    c.contiguous = std::min(c.cycles, total(strided, issue_of(0.0, 0.0)));
  }
  return c;
}

}  // namespace ncar::sxs
