#include "sxs/cpu.hpp"

#include "common/error.hpp"

namespace ncar::sxs {

namespace {

// Attribution class of a vector loop — a pure function of the descriptor:
// divide work binds the divide/sqrt pipe, multi-group arithmetic is
// madd-style, single-group arithmetic is add-pipe work, and flop-free loops
// (copies, masks, shifts) are logical traffic.
trace::Category classify(const VectorOp& op) {
  if (op.div_per_elem > 0) return trace::Category::VectorDiv;
  if (op.flops_per_elem > 0) {
    return op.pipe_groups >= 2 ? trace::Category::VectorMul
                               : trace::Category::VectorAdd;
  }
  return trace::Category::VectorLogical;
}

}  // namespace

VectorUnit::Costs Cpu::vec_cost(const VectorOp& op) {
  return vec_cost_.get(op, [&] { return vu_.costs(op); });
}

Cpu::ScalarCost Cpu::scalar_cost(const ScalarOp& op) {
  return scalar_cost_.get(op, [&] {
    return ScalarCost{su_.cycles(op).value(), su_.miss_cycles(op).value()};
  });
}

void Cpu::record(trace::Category category, double start, double charged,
                 double base, double miss, double gather_scatter,
                 const char* tag) {
  // total mirrors the cycle counter addition-for-addition, so
  // trace().total_ticks() stays bit-identical to cycles().
  trace_.count_total(charged);
  double conflict = charged - base;  // contention (+ stride) inflation
  if (conflict < 0) conflict = 0;    // last-ulp guard near contention == 1
  double main = base;
  if (miss > 0) {
    if (miss > main) miss = main;
    main -= miss;
    trace_.count(trace::Category::CacheMiss, miss);
  }
  if (gather_scatter > 0) {
    if (gather_scatter > main) gather_scatter = main;
    main -= gather_scatter;
    trace_.count(trace::Category::GatherScatter, gather_scatter);
  }
  trace_.count(category, main);
  if (conflict > 0) trace_.count(trace::Category::BankConflict, conflict);
  trace_.span(category, start, charged, tag);
}

void Cpu::apply(const Price& p, long repeats) {
  // One formula serves every kind: a factor that is 1.0 for a kind (the
  // multiplier outside intrinsics, a single repeat) leaves a product's bits
  // unchanged, so each kind adds exactly what its own formula would.
  const double reps = static_cast<double>(repeats);
  const double c = p.cycles_ * contention_ * p.multiplier_ * reps;
  const double start = cycles_ + trace_time_offset_;
  cycles_ += c;
  switch (p.bucket_) {
    case Price::Bucket::Vector: vector_cycles_ += c; break;
    case Price::Bucket::Scalar: scalar_cycles_ += c; break;
    case Price::Bucket::Intrinsic: intrinsic_cycles_ += c; break;
  }
  record(p.category_, start, c, p.base_ * reps, p.miss_ * reps,
         p.gather_scatter_ * reps, p.tag_);

  const double total = p.elems_ * reps;
  hw_flops_ += total * p.hw_flops_per_elem_;
  equiv_flops_ += total * p.equiv_flops_per_elem_;
}

void Cpu::charge(const Price& p, long repeats) {
  NCAR_REQUIRE(p.config_ == cfg_, "price from another Cpu");
  NCAR_REQUIRE(repeats >= 0, "negative repeat count");
  if (repeats == 0) return;
  apply(p, repeats);
}

Cpu::Price Cpu::price(const VectorOp& op) {
  // The premiums over the cheaper variants are the attribution splits.
  const VectorUnit::Costs cost = vec_cost(op);
  Price p(cfg_, Price::Bucket::Vector, classify(op), "vec");
  p.cycles_ = cost.cycles.value();
  p.base_ = cost.unit_stride.value();
  p.gather_scatter_ = (cost.cycles - cost.contiguous).value();
  p.elems_ = static_cast<double>(op.n);
  p.hw_flops_per_elem_ = op.flops_per_elem + op.div_per_elem;
  p.equiv_flops_per_elem_ = p.hw_flops_per_elem_;
  return p;
}

Cpu::Price Cpu::price(const ScalarOp& op) {
  const ScalarCost cost = scalar_cost(op);
  Price p(cfg_, Price::Bucket::Scalar, trace::Category::Scalar, "scalar");
  p.cycles_ = cost.cycles;
  p.base_ = cost.cycles;
  p.miss_ = cost.miss;
  p.elems_ = static_cast<double>(op.iters);
  p.hw_flops_per_elem_ = op.flops_per_iter;
  p.equiv_flops_per_elem_ = op.flops_per_iter;
  return p;
}

Cpu::Price Cpu::price_intrinsic(Intrinsic f, long n, double extra_load_words,
                                double extra_store_words,
                                double cycle_multiplier) {
  NCAR_REQUIRE(n >= 0, "negative intrinsic count");
  NCAR_REQUIRE(cycle_multiplier >= 1.0, "cycle multiplier below 1");
  Price p(cfg_, Price::Bucket::Intrinsic, trace::Category::VectorMul,
          "intrinsic");
  if (n == 0) return p;  // charges nothing
  const IntrinsicCost cost = intrinsic_cost(f);
  VectorOp op;
  op.n = n;
  op.flops_per_elem = cost.hw_flops;
  op.div_per_elem = cost.hw_div;
  op.load_words = extra_load_words;
  op.store_words = extra_store_words;
  op.pipe_groups = 2;
  const double op_cost = vec_cost(op).cycles.value();
  p.cycles_ = op_cost;
  p.multiplier_ = cycle_multiplier;
  p.base_ = op_cost * cycle_multiplier;
  p.elems_ = static_cast<double>(n);
  p.hw_flops_per_elem_ = cost.hw_flops + cost.hw_div;
  p.equiv_flops_per_elem_ = cost.equiv_flops;
  return p;
}

Cpu::Price Cpu::price_scalar_intrinsic(Intrinsic f, long n) {
  NCAR_REQUIRE(n >= 0, "negative intrinsic count");
  Price p(cfg_, Price::Bucket::Intrinsic, trace::Category::Scalar,
          "scalar_intrinsic");
  if (n == 0) return p;  // charges nothing
  const IntrinsicCost cost = intrinsic_cost(f);
  ScalarOp op;
  op.iters = n;
  op.flops_per_iter = cost.hw_flops + cost.hw_div;
  op.mem_words_per_iter = 2.0;  // argument load + result store
  op.other_ops_per_iter = 6.0;  // call / branch / table indexing overhead
  op.working_set_bytes = 4096;  // coefficient tables stay resident
  op.reuse_fraction = 0.9;
  const ScalarCost op_cost = scalar_cost(op);
  p.cycles_ = op_cost.cycles;
  p.base_ = op_cost.cycles;
  p.miss_ = op_cost.miss;
  p.elems_ = static_cast<double>(n);
  p.hw_flops_per_elem_ = cost.hw_flops + cost.hw_div;
  p.equiv_flops_per_elem_ = cost.equiv_flops;
  return p;
}

void Cpu::vec(const VectorOp& op, long repeats) {
  NCAR_REQUIRE(repeats >= 0, "negative repeat count");
  if (repeats == 0) return;
  apply(price(op), repeats);
}

void Cpu::vec(const VectorOp& op, long repeats, trace::Category category) {
  NCAR_REQUIRE(repeats >= 0, "negative repeat count");
  if (repeats == 0) return;
  Price p = price(op);
  p.category_ = category;
  apply(p, repeats);
}

void Cpu::scalar(const ScalarOp& op) { apply(price(op), 1); }

void Cpu::intrinsic(Intrinsic f, long n, double extra_load_words,
                    double extra_store_words, double cycle_multiplier,
                    long repeats) {
  NCAR_REQUIRE(n >= 0, "negative intrinsic count");
  NCAR_REQUIRE(repeats >= 0, "negative repeat count");
  NCAR_REQUIRE(cycle_multiplier >= 1.0, "cycle multiplier below 1");
  if (n == 0 || repeats == 0) return;
  apply(price_intrinsic(f, n, extra_load_words, extra_store_words,
                        cycle_multiplier),
        repeats);
}

void Cpu::scalar_intrinsic(Intrinsic f, long n) {
  NCAR_REQUIRE(n >= 0, "negative intrinsic count");
  if (n == 0) return;
  apply(price_scalar_intrinsic(f, n), 1);
}

void Cpu::charge_cycles(Cycles cycles, trace::Category category) {
  NCAR_REQUIRE(cycles.value() >= 0, "negative cycle charge");
  // Raw charges represent real work (memory-touching included), so the
  // node contention factor applies here as well.
  const double v = cycles.value();
  const double c = v * contention_;
  const double start = cycles_ + trace_time_offset_;
  cycles_ += c;
  record(category, start, c, v, 0.0, 0.0, "charge");
}

void Cpu::charge_seconds(Seconds seconds, trace::Category category) {
  NCAR_REQUIRE(seconds.value() >= 0, "negative time charge");
  charge_cycles(cfg_->to_cycles(seconds), category);
}

void Cpu::set_contention(double factor) {
  NCAR_REQUIRE(factor >= 1.0, "contention factor below 1");
  contention_ = factor;
}

void Cpu::reset() {
  cycles_ = 0;
  vector_cycles_ = 0;
  scalar_cycles_ = 0;
  intrinsic_cycles_ = 0;
  hw_flops_ = 0;
  equiv_flops_ = 0;
  contention_ = 1.0;
  trace_.reset();
  trace_time_offset_ = 0;
}

}  // namespace ncar::sxs
