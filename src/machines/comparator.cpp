#include "machines/comparator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "machines/description.hpp"

namespace ncar::machines {

namespace {

/// `spec`, once its configuration validates: Comparator's member chain runs
/// this before cpu_ exists, so a bad config fails as config_error and never
/// reaches the timing model.
Spec validated(Spec spec) {
  spec.cfg.validate();
  return spec;
}

}  // namespace

Comparator::Comparator(Spec spec)
    : spec_(validated(std::move(spec))), cpu_(spec_.cfg) {}

Comparator::Price Comparator::price(const sxs::VectorOp& op) {
  if (spec_.has_vector) return {cpu_.price(op)};
  // No vector hardware: the loop runs on the scalar unit. Streams become
  // cached references; gathers/scatters are ordinary indexed loads there.
  sxs::ScalarOp s;
  s.iters = op.n;
  s.flops_per_iter = op.flops_per_elem + op.div_per_elem;
  s.mem_words_per_iter =
      op.load_words + op.store_words + op.gather_words + op.scatter_words;
  s.other_ops_per_iter = 2.0;  // loop control / addressing
  s.working_set_bytes = static_cast<double>(op.n) * s.mem_words_per_iter * 8.0;
  s.reuse_fraction = 0.0;  // vectorisable loops are streaming by nature
  return {cpu_.price(s)};
}

Comparator::Price Comparator::price(const sxs::ScalarOp& op) {
  return {cpu_.price(op)};
}

Comparator::Price Comparator::price(sxs::Intrinsic f, long n) {
  if (spec_.has_vector) {
    return {cpu_.price_intrinsic(f, n, 1.0, 1.0,
                                 spec_.vector_libm_multiplier)};
  }
  Price p{cpu_.price_scalar_intrinsic(f, n)};
  if (spec_.libm_call_overhead_cycles > 0 && n > 0) {
    p.libm_overhead =
        Cycles(spec_.libm_call_overhead_cycles * static_cast<double>(n));
  }
  return p;
}

void Comparator::charge(const Price& price, long repeats) {
  NCAR_REQUIRE(repeats >= 0, "negative repeat count");
  if (spec_.has_vector) {
    cpu_.charge(price.cpu, repeats);
    return;
  }
  // The scalar unit runs the loop `repeats` times, each a charge of its own.
  for (long r = 0; r < repeats; ++r) {
    cpu_.charge(price.cpu);
    if (price.libm_overhead > Cycles(0.0)) {
      cpu_.charge_cycles(price.libm_overhead, trace::Category::Scalar);
    }
  }
}

void Comparator::vec(const sxs::VectorOp& op, long repeats) {
  if (sink_ != nullptr) sink_->on_vec(op, repeats);
  if (repeats == 0) return;
  charge(price(op), repeats);
}

void Comparator::scalar(const sxs::ScalarOp& op) {
  if (sink_ != nullptr) sink_->on_scalar(op);
  charge(price(op));
}

void Comparator::intrinsic(sxs::Intrinsic f, long n) {
  if (sink_ != nullptr) sink_->on_intrinsic(f, n);
  if (n == 0) return;
  charge(price(f, n));
}

// The presets lower the builtin catalog's description tables (the catalog
// carries the calibration notes). test_golden_descriptions.cpp keeps the
// pre-catalog hard-coded Specs verbatim and pins bit-identical charges.

Spec Comparator::sun_sparc20() { return spec_for("SUN Sparc20"); }

Spec Comparator::ibm_rs6000_590() { return spec_for("IBM RS6000/590"); }

Spec Comparator::cray_j90() { return spec_for("CRI J90"); }

Spec Comparator::cray_ymp() { return spec_for("CRI Y-MP"); }

Spec Comparator::nec_sx4_single() { return spec_for("NEC SX-4/1"); }

}  // namespace ncar::machines
