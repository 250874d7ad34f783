#include "machines/comparator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sxs/ops.hpp"

namespace {

using ncar::machines::Comparator;
using ncar::sxs::Intrinsic;
using ncar::sxs::VectorOp;

VectorOp triad(long n) {
  VectorOp op;
  op.n = n;
  op.flops_per_elem = 2;
  op.load_words = 2;
  op.store_words = 1;
  return op;
}

TEST(Comparator, AllPresetsValidate) {
  // Construction validates each preset's configuration.
  Comparator a(Comparator::sun_sparc20());
  Comparator b(Comparator::ibm_rs6000_590());
  Comparator c(Comparator::cray_j90());
  Comparator d(Comparator::cray_ymp());
  Comparator e(Comparator::nec_sx4_single());
  EXPECT_FALSE(a.has_vector());
  EXPECT_FALSE(b.has_vector());
  EXPECT_TRUE(c.has_vector());
  EXPECT_TRUE(d.has_vector());
  EXPECT_TRUE(e.has_vector());
}

TEST(Comparator, InvalidConfigThrowsConfigErrorBeforeBuildingTheCpu) {
  // The spec is validated before the Cpu exists, so a bad bank count is
  // reported as a configuration error, not as whatever the timing model
  // would trip over first.
  auto spec = Comparator::nec_sx4_single();
  spec.cfg.memory_banks = -8;
  EXPECT_THROW(Comparator{spec}, ncar::config_error);
}

TEST(Comparator, VectorMachinesWinLongVectorLoops) {
  // The same long triad loop must run far faster on the Y-MP than on the
  // Sparc20 — this asymmetry is what Table 1's RADABS column shows.
  Comparator ymp(Comparator::cray_ymp());
  Comparator sparc(Comparator::sun_sparc20());
  const long n = 1 << 20;
  ymp.vec(triad(n));
  sparc.vec(triad(n));
  EXPECT_GT(sparc.seconds().value(), 4.0 * ymp.seconds().value());
}

TEST(Comparator, ScalarMachinesCompetitiveOnScalarWork) {
  // Cache-friendly scalar work (HINT-like) runs comparably or better on the
  // workstations than on the Crays' scalar units.
  ncar::sxs::ScalarOp op;
  op.iters = 100000;
  op.flops_per_iter = 4;
  op.mem_words_per_iter = 4;
  op.other_ops_per_iter = 8;
  op.working_set_bytes = 8 * 1024;
  op.reuse_fraction = 0.9;

  Comparator j90(Comparator::cray_j90());
  Comparator sparc(Comparator::sun_sparc20());
  j90.scalar(op);
  sparc.scalar(op);
  EXPECT_LT(sparc.seconds().value(), j90.seconds().value());
}

TEST(Comparator, Sx4BeatsYmpOnVectorWork) {
  Comparator sx4(Comparator::nec_sx4_single());
  Comparator ymp(Comparator::cray_ymp());
  const long n = 1 << 20;
  sx4.vec(triad(n));
  ymp.vec(triad(n));
  // ~1.7 Gflops peak vs 333 Mflops peak; memory-bound triad still >2x.
  EXPECT_GT(ymp.seconds().value(), 2.0 * sx4.seconds().value());
}

TEST(Comparator, IntrinsicsVectoriseOnVectorMachines) {
  Comparator ymp(Comparator::cray_ymp());
  Comparator rs6k(Comparator::ibm_rs6000_590());
  const long n = 100000;
  ymp.intrinsic(Intrinsic::Exp, n);
  rs6k.intrinsic(Intrinsic::Exp, n);
  EXPECT_LT(ymp.seconds().value(), rs6k.seconds().value());
}

TEST(Comparator, EquivalentFlopsUseCrayCurrency) {
  Comparator ymp(Comparator::cray_ymp());
  ymp.intrinsic(Intrinsic::Exp, 1000);
  EXPECT_DOUBLE_EQ(ymp.equiv_flops().value(), 11000.0);
}

TEST(Comparator, ResetClearsAccounting) {
  Comparator sx4(Comparator::nec_sx4_single());
  sx4.vec(triad(1000));
  sx4.reset();
  EXPECT_DOUBLE_EQ(sx4.seconds().value(), 0.0);
  EXPECT_DOUBLE_EQ(sx4.equiv_flops().value(), 0.0);
}

TEST(Comparator, ScalarFallbackChargesVectorLoopAsScalar) {
  Comparator sparc(Comparator::sun_sparc20());
  sparc.vec(triad(10000));
  // 2 flops/elem accounted either way.
  EXPECT_DOUBLE_EQ(sparc.hw_flops().value(), 20000.0);
  EXPECT_GT(sparc.seconds().value(), 0.0);
}

TEST(Comparator, VecRepeatsMultiplyChargesOnBothPaths) {
  // repeats must behave as "charge the same loop k times" on the vector
  // path and on the scalar-fallback path alike.
  Comparator sx4_once(Comparator::nec_sx4_single());
  Comparator sx4_many(Comparator::nec_sx4_single());
  for (int r = 0; r < 5; ++r) sx4_once.vec(triad(4096));
  sx4_many.vec(triad(4096), 5);
  EXPECT_EQ(sx4_once.seconds().value(), sx4_many.seconds().value());
  EXPECT_EQ(sx4_once.hw_flops().value(), sx4_many.hw_flops().value());

  Comparator sparc_once(Comparator::sun_sparc20());
  Comparator sparc_many(Comparator::sun_sparc20());
  for (int r = 0; r < 5; ++r) sparc_once.vec(triad(4096));
  sparc_many.vec(triad(4096), 5);
  EXPECT_EQ(sparc_once.seconds().value(), sparc_many.seconds().value());
}

namespace sink_test {

struct CountingSink final : ncar::machines::OpSink {
  long vec_ops = 0, vec_repeats = 0, scalar_ops = 0, intrinsic_calls = 0;
  void on_vec(const VectorOp&, long repeats) override {
    ++vec_ops;
    vec_repeats += repeats;
  }
  void on_scalar(const ncar::sxs::ScalarOp&) override { ++scalar_ops; }
  void on_intrinsic(Intrinsic, long n) override { intrinsic_calls += n; }
};

}  // namespace sink_test

TEST(Comparator, OpSinkObservesLogicalOpsPreDispatch) {
  // The sink sees a vec() as a vector op even on a machine without vector
  // hardware — that's what makes recorded streams machine-portable.
  sink_test::CountingSink sink;
  Comparator sparc(Comparator::sun_sparc20());
  sparc.set_op_sink(&sink);
  sparc.vec(triad(100), 3);
  sparc.scalar(ncar::sxs::ScalarOp{.iters = 10});
  sparc.intrinsic(Intrinsic::Exp, 7);
  EXPECT_EQ(sink.vec_ops, 1);
  EXPECT_EQ(sink.vec_repeats, 3);
  EXPECT_EQ(sink.scalar_ops, 1);
  EXPECT_EQ(sink.intrinsic_calls, 7);
}

TEST(Comparator, OpSinkSurvivesResetAndDetaches) {
  sink_test::CountingSink sink;
  Comparator sx4(Comparator::nec_sx4_single());
  sx4.set_op_sink(&sink);
  sx4.reset();  // kernels reset on entry; recording must keep working
  sx4.vec(triad(100));
  EXPECT_EQ(sink.vec_ops, 1);
  sx4.set_op_sink(nullptr);
  sx4.vec(triad(100));
  EXPECT_EQ(sink.vec_ops, 1);
}

TEST(Comparator, OpSinkDoesNotPerturbCharges) {
  sink_test::CountingSink sink;
  Comparator observed(Comparator::nec_sx4_single());
  Comparator plain(Comparator::nec_sx4_single());
  observed.set_op_sink(&sink);
  observed.vec(triad(1 << 16));
  plain.vec(triad(1 << 16));
  EXPECT_EQ(observed.seconds().value(), plain.seconds().value());
}

}  // namespace
