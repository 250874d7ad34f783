#pragma once
// A simulated SX-4 central processor.
//
// The Cpu accumulates simulated cycles as benchmark kernels charge vector,
// scalar, and intrinsic operations against it, and tracks two flop
// currencies: hardware flops (what our pipes executed) and Cray-Y-MP
// equivalent flops (the unit the paper reports for RADABS and CCM2).
//
// Pricing is memoized: VectorUnit::cycles / ScalarUnit::cycles are pure
// functions of (descriptor, MachineConfig), so each Cpu keeps an op-cost
// cache (common/cost_cache.hpp) keyed by the full descriptor tuple.
// Contention, cycle multipliers and repeat counts multiply the cached value
// exactly as they multiplied the freshly computed one, so memoization is
// bit-identical. cost_cache_hits()/misses() expose the counters for the
// bench reporter.

#include <cstdint>

#include "common/cost_cache.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/memory_model.hpp"
#include "sxs/ops.hpp"
#include "sxs/scalar_unit.hpp"
#include "sxs/vector_unit.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"

namespace ncar::sxs {

class Cpu {
public:
  explicit Cpu(const MachineConfig& cfg)
      : cfg_(&cfg), mem_(cfg), vu_(cfg, mem_), su_(cfg),
        trace_(cfg.seconds_per_clock()) {}

  // The subunits hold references into this object and into the owning
  // configuration; copying or moving would leave them dangling.
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // --- charging ------------------------------------------------------------
  /// Charge a vectorised loop, `repeats` times (the common case of an
  /// identical inner loop executed for every instance/latitude/level: the
  /// timing is evaluated once and multiplied, keeping simulation cost flat).
  /// Adds flops to both currencies (1:1 for plain arithmetic; divide
  /// results count as one flop each).
  void vec(const VectorOp& op, long repeats = 1);

  /// Same charge, but filed under an explicit attribution category instead
  /// of the descriptor-derived one (e.g. Category::SltInterp for the
  /// semi-Lagrangian interpolation loops, which would otherwise disappear
  /// into the generic vector-pipe buckets). Cycle and flop accounting are
  /// identical to the two-argument overload.
  void vec(const VectorOp& op, long repeats, trace::Category category);

  /// Charge a scalar-mode loop (runs through the cache model).
  void scalar(const ScalarOp& op);

  /// Charge `n` vectorised intrinsic evaluations, each consuming
  /// `extra_streams` additional load/store words per element.
  /// `cycle_multiplier` scales the *time* of the evaluation without changing
  /// the flop accounting — it models machines whose vector libm is less
  /// tuned than their pipes (e.g. the J90's early CMOS library).
  void intrinsic(Intrinsic f, long n, double extra_load_words = 1.0,
                 double extra_store_words = 1.0,
                 double cycle_multiplier = 1.0, long repeats = 1);

  /// Charge `n` *scalar* intrinsic evaluations (cache-style code).
  void scalar_intrinsic(Intrinsic f, long n);

  /// Charge raw cycles (synchronisation, I/O waits, fixed overheads).
  /// Typed on purpose: a caller holding wall-clock time cannot charge it as
  /// cycles (or vice versa) without converting through a MachineConfig.
  /// `category` files the charge in the attribution taxonomy. It has no
  /// default, so an uncategorised charge is a compile error rather than a
  /// silent `other` row.
  void charge_cycles(Cycles cycles, trace::Category category);
  void charge_seconds(Seconds seconds, trace::Category category);

  /// Adjust the equivalent-flop count without touching time (used when a
  /// kernel's Cray flop-count convention differs from the hardware count).
  void add_equiv_flops(Flops flops) { equiv_flops_ += flops.value(); }

  // --- contention -------------------------------------------------------------
  /// Memory-bound cycle inflation applied while other CPUs are active;
  /// set by Node::parallel from the bank-contention model.
  void set_contention(double factor);
  double contention() const { return contention_; }

  // --- accounting -------------------------------------------------------------
  double cycles() const { return cycles_; }
  double seconds() const { return cycles_ * cfg_->seconds_per_clock(); }
  Flops hw_flops() const { return Flops(hw_flops_); }
  Flops equiv_flops() const { return Flops(equiv_flops_); }

  /// Cycle breakdown by execution class (vector loops / scalar loops /
  /// vectorised intrinsics / raw charges). Sums to cycles().
  double vector_cycles() const { return vector_cycles_; }
  double scalar_cycles() const { return scalar_cycles_; }
  double intrinsic_cycles() const { return intrinsic_cycles_; }
  double other_cycles() const {
    return cycles_ - vector_cycles_ - scalar_cycles_ - intrinsic_cycles_;
  }

  void reset();

  // --- op-cost cache ----------------------------------------------------------
  /// Cached-cost lookups that found (missed) an entry, summed over the
  /// vector and scalar caches. reset() leaves both alone: the cache is an
  /// evaluator detail, valid for the lifetime of the configuration.
  std::uint64_t cost_cache_hits() const {
    return vec_cost_.hits() + scalar_cost_.hits();
  }
  std::uint64_t cost_cache_misses() const {
    return vec_cost_.misses() + scalar_cost_.misses();
  }

  // --- tracing ---------------------------------------------------------------
  /// Attribution counters / span track for this Cpu. Written only by the
  /// rank charging the Cpu, same ownership discipline as the cycle counter.
  trace::Collector& trace() { return trace_; }
  const trace::Collector& trace() const { return trace_; }

  /// Span timestamps are `cycles() + offset`, so Node::parallel aligns each
  /// rank's track with the node wall clock by setting the offset to the
  /// node's elapsed cycles at region entry.
  void set_trace_time_offset(double cycles) { trace_time_offset_ = cycles; }
  double trace_time_offset() const { return trace_time_offset_; }

  const MachineConfig& config() const { return *cfg_; }
  const MemoryModel& memory() const { return mem_; }
  const VectorUnit& vector_unit() const { return vu_; }
  const ScalarUnit& scalar_unit() const { return su_; }

private:
  /// Shared body of the vec() overloads: `category` is where the charge is
  /// filed (classify(op) for the default overload).
  void vec_impl(const VectorOp& op, long repeats, trace::Category category);

  /// Cycles for `op`, via the cache (pure in op given the fixed config).
  double vec_cost(const VectorOp& op);
  double scalar_cost(const ScalarOp& op);
  double scalar_miss_cost(const ScalarOp& op);

  /// File `charged` (the full, contention-inflated amount) under `category`,
  /// carving the contention inflation (charged - base) into bank_conflict
  /// and, when `miss` / `gather_scatter` > 0, a cache_miss or
  /// gather_scatter share out of the base.
  void record(trace::Category category, double start, double charged,
              double base, double miss, double gather_scatter,
              const char* tag);

  const MachineConfig* cfg_;
  MemoryModel mem_;
  VectorUnit vu_;
  ScalarUnit su_;
  CostCache<VectorOp, VectorOpHash> vec_cost_;
  CostCache<ScalarOp, ScalarOpHash> scalar_cost_;
  CostCache<ScalarOp, ScalarOpHash> scalar_miss_cost_;
  trace::Collector trace_;
  double trace_time_offset_ = 0;
  double cycles_ = 0;
  double vector_cycles_ = 0;
  double scalar_cycles_ = 0;
  double intrinsic_cycles_ = 0;
  double hw_flops_ = 0;
  double equiv_flops_ = 0;
  double contention_ = 1.0;
};

}  // namespace ncar::sxs
