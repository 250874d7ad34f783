#include "sxs/scalar_unit.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ncar::sxs {

double ScalarUnit::miss_rate(const ScalarOp& op) const {
  NCAR_REQUIRE(op.reuse_fraction >= 0.0 && op.reuse_fraction <= 1.0,
               "reuse_fraction in [0,1]");
  const double words_per_line =
      static_cast<double>(cfg_.cache_line_bytes) / 8.0;

  // Streaming references miss once per line (sequential walk).
  const double streaming_miss = 1.0 / words_per_line;

  // Resident references miss in proportion to how much of the working set
  // does not fit in the data cache.
  double resident_miss = 0.0;
  if (op.working_set_bytes > static_cast<double>(cfg_.dcache_bytes)) {
    // The fraction of the working set that does not fit misses once per
    // line each pass over the set.
    const double excess =
        1.0 - static_cast<double>(cfg_.dcache_bytes) / op.working_set_bytes;
    resident_miss = std::min(excess / words_per_line, 1.0);
  }

  return op.reuse_fraction * resident_miss +
         (1.0 - op.reuse_fraction) * streaming_miss;
}

Cycles ScalarUnit::miss_cycles(const ScalarOp& op) const {
  NCAR_REQUIRE(op.iters >= 0, "negative iteration count");
  if (op.iters == 0) return Cycles(0.0);
  const double n = static_cast<double>(op.iters);
  const double misses = n * op.mem_words_per_iter * miss_rate(op);
  return Cycles(misses * cfg_.cache_miss_clocks);
}

Cycles ScalarUnit::cycles(const ScalarOp& op) const {
  NCAR_REQUIRE(op.iters >= 0, "negative iteration count");
  if (op.iters == 0) return Cycles(0.0);
  const double n = static_cast<double>(op.iters);

  const double instr_per_iter =
      op.flops_per_iter + op.mem_words_per_iter + op.other_ops_per_iter;
  const double issue_cycles =
      n * instr_per_iter / static_cast<double>(cfg_.scalar_issue_width);

  return Cycles(issue_cycles) + miss_cycles(op);
}

}  // namespace ncar::sxs
