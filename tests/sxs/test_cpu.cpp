#include "sxs/cpu.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sxs/machine_config.hpp"
#include "trace/category.hpp"

namespace {

using ncar::sxs::Cpu;
using ncar::sxs::Intrinsic;
using ncar::sxs::MachineConfig;
using ncar::sxs::ScalarOp;
using ncar::sxs::VectorOp;
namespace trace = ncar::trace;

// Restores the process-wide tracing mode on scope exit so carve tests do
// not leak Summary mode into the rest of the suite.
class ModeGuard {
public:
  explicit ModeGuard(trace::Mode m) : before_(trace::mode()) {
    trace::set_mode(m);
  }
  ~ModeGuard() { trace::set_mode(before_); }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

private:
  trace::Mode before_;
};

class CpuTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_benchmarked();
  Cpu cpu{cfg};
};

TEST_F(CpuTest, StartsAtZero) {
  EXPECT_DOUBLE_EQ(cpu.cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.hw_flops().value(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.equiv_flops().value(), 0.0);
}

TEST_F(CpuTest, VectorOpAccumulatesCyclesAndFlops) {
  VectorOp op;
  op.n = 1000;
  op.flops_per_elem = 2;
  op.load_words = 2;
  op.store_words = 1;
  cpu.vec(op);
  EXPECT_GT(cpu.cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.hw_flops().value(), 2000.0);
  EXPECT_DOUBLE_EQ(cpu.equiv_flops().value(), 2000.0);
}

TEST_F(CpuTest, SecondsAreCyclesTimesClock) {
  cpu.charge_cycles(ncar::Cycles(1000.0), trace::Category::Other);
  EXPECT_NEAR(cpu.seconds(), 1000.0 * 9.2e-9, 1e-15);
}

TEST_F(CpuTest, ChargeSecondsRoundTrips) {
  cpu.charge_seconds(ncar::Seconds(1e-3), trace::Category::Other);
  EXPECT_NEAR(cpu.seconds(), 1e-3, 1e-12);
}

TEST_F(CpuTest, IntrinsicUsesDifferentFlopCurrencies) {
  cpu.intrinsic(Intrinsic::Exp, 1000);
  // Hardware pipes executed 18 flops per EXP; Cray counting says 11.
  EXPECT_DOUBLE_EQ(cpu.hw_flops().value(), 18000.0);
  EXPECT_DOUBLE_EQ(cpu.equiv_flops().value(), 11000.0);
}

TEST_F(CpuTest, VectorIntrinsicRateIsPaperShaped) {
  // ELEFUNT reports millions of calls per second; a vectorised EXP on the
  // SX-4/1 should land in the tens-to-hundreds of Mcalls/s.
  const long n = 1 << 22;
  cpu.intrinsic(Intrinsic::Exp, n);
  const double mcalls = n / cpu.seconds() / 1e6;
  EXPECT_GT(mcalls, 30.0);
  EXPECT_LT(mcalls, 200.0);
}

TEST_F(CpuTest, ScalarIntrinsicMuchSlowerThanVector) {
  Cpu a{cfg}, b{cfg};
  const long n = 100000;
  a.intrinsic(Intrinsic::Sin, n);
  b.scalar_intrinsic(Intrinsic::Sin, n);
  EXPECT_GT(b.seconds(), 5.0 * a.seconds());
}

TEST_F(CpuTest, ContentionInflatesChargedTime) {
  VectorOp op;
  op.n = 100000;
  op.load_words = 1;
  op.store_words = 1;
  Cpu base{cfg};
  base.vec(op);
  cpu.set_contention(1.1);
  cpu.vec(op);
  EXPECT_NEAR(cpu.cycles() / base.cycles(), 1.1, 1e-9);
}

TEST_F(CpuTest, ContentionBelowOneThrows) {
  EXPECT_THROW(cpu.set_contention(0.9), ncar::precondition_error);
}

TEST_F(CpuTest, ResetClearsEverything) {
  cpu.charge_cycles(ncar::Cycles(10), trace::Category::Other);
  cpu.add_equiv_flops(ncar::Flops(5));
  cpu.set_contention(1.5);
  cpu.reset();
  EXPECT_DOUBLE_EQ(cpu.cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.equiv_flops().value(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.contention(), 1.0);
}

TEST_F(CpuTest, NegativeChargesThrow) {
  EXPECT_THROW(cpu.charge_cycles(ncar::Cycles(-1), trace::Category::Other),
               ncar::precondition_error);
  EXPECT_THROW(cpu.charge_seconds(ncar::Seconds(-1), trace::Category::Other),
               ncar::precondition_error);
  EXPECT_THROW(cpu.intrinsic(Intrinsic::Exp, -1), ncar::precondition_error);
}

TEST_F(CpuTest, CostCacheCountsHitsAndMisses) {
  VectorOp op;
  op.n = 1000;
  op.flops_per_elem = 2;
  op.load_words = 2;
  op.store_words = 1;
  EXPECT_EQ(cpu.cost_cache_hits(), 0u);
  EXPECT_EQ(cpu.cost_cache_misses(), 0u);
  cpu.vec(op);  // first sight: priced once
  EXPECT_EQ(cpu.cost_cache_misses(), 1u);
  cpu.vec(op);  // identical descriptor: replayed
  cpu.vec(op);
  EXPECT_EQ(cpu.cost_cache_hits(), 2u);
  EXPECT_EQ(cpu.cost_cache_misses(), 1u);
  op.n = 1001;  // any field change is a new key
  cpu.vec(op);
  EXPECT_EQ(cpu.cost_cache_misses(), 2u);
}

TEST_F(CpuTest, CachedChargesAreBitIdenticalToFirstSight) {
  VectorOp op;
  op.n = 12345;
  op.load_words = 3;
  op.store_words = 1;
  op.load_stride = 7;
  op.flops_per_elem = 4;
  Cpu fresh{cfg};
  fresh.vec(op);
  const double first = fresh.cycles();
  cpu.vec(op);
  cpu.reset();  // reset clears counters but keeps the cache warm
  cpu.vec(op);  // replayed from cache
  EXPECT_EQ(cpu.cycles(), first);
  EXPECT_GE(cpu.cost_cache_hits(), 1u);
}

TEST_F(CpuTest, PricedChargesMatchDirectChargesBitForBit) {
  // vec/scalar/intrinsic are charge(price(...)): a Price held and charged
  // later, under contention and in summary mode (which exports the
  // attribution), adds exactly what the direct call adds.
  const ModeGuard guard(trace::Mode::Summary);
  VectorOp strided;
  strided.n = 777;
  strided.flops_per_elem = 3;
  strided.load_words = 2;
  strided.gather_words = 1;
  strided.load_stride = 4;
  ScalarOp loop;
  loop.iters = 500;
  loop.flops_per_iter = 2;
  loop.mem_words_per_iter = 3;
  loop.working_set_bytes = 1 << 20;

  Cpu direct{cfg};
  Cpu priced{cfg};
  direct.set_contention(1.3);
  priced.set_contention(1.3);
  const Cpu::Price v = priced.price(strided);
  const Cpu::Price s = priced.price(loop);
  const Cpu::Price i = priced.price_intrinsic(Intrinsic::Exp, 300, 1.0, 1.0,
                                              1.5);
  const Cpu::Price si = priced.price_scalar_intrinsic(Intrinsic::Log, 40);
  for (int round = 0; round < 3; ++round) {
    direct.vec(strided, 17);
    priced.charge(v, 17);
    direct.scalar(loop);
    priced.charge(s);
    direct.intrinsic(Intrinsic::Exp, 300, 1.0, 1.0, 1.5, 2);
    priced.charge(i, 2);
    direct.scalar_intrinsic(Intrinsic::Log, 40);
    priced.charge(si);
  }
  EXPECT_EQ(priced.cycles(), direct.cycles());
  EXPECT_EQ(priced.vector_cycles(), direct.vector_cycles());
  EXPECT_EQ(priced.scalar_cycles(), direct.scalar_cycles());
  EXPECT_EQ(priced.intrinsic_cycles(), direct.intrinsic_cycles());
  EXPECT_EQ(priced.hw_flops().value(), direct.hw_flops().value());
  EXPECT_EQ(priced.equiv_flops().value(), direct.equiv_flops().value());
  for (int c = 0; c < trace::kCategoryCount; ++c) {
    const auto cat = static_cast<trace::Category>(c);
    EXPECT_EQ(priced.trace().category_ticks(cat),
              direct.trace().category_ticks(cat))
        << trace::to_string(cat);
  }
}

TEST_F(CpuTest, PriceChargesOnlyOnItsConfiguration) {
  VectorOp op;
  op.n = 64;
  op.flops_per_elem = 1;
  const Cpu::Price p = cpu.price(op);
  Cpu sibling{cfg};  // same configuration object: the same prices
  sibling.charge(p);
  EXPECT_GT(sibling.cycles(), 0.0);
  const MachineConfig copy = cfg;  // equal, but not the config it priced on
  Cpu other{copy};
  EXPECT_THROW(other.charge(p), ncar::precondition_error);
  EXPECT_THROW(cpu.charge(p, -1), ncar::precondition_error);
  cpu.charge(p, 0);
  EXPECT_EQ(cpu.cycles(), 0.0);
}

TEST_F(CpuTest, ScalarCostCacheCountsSeparately) {
  ScalarOp op;
  op.iters = 100;
  op.flops_per_iter = 1;
  op.mem_words_per_iter = 1;
  cpu.scalar(op);
  cpu.scalar(op);
  EXPECT_EQ(cpu.cost_cache_misses(), 1u);
  EXPECT_EQ(cpu.cost_cache_hits(), 1u);
}

TEST_F(CpuTest, ScalarOpGoesThroughCacheModel) {
  ScalarOp op;
  op.iters = 10000;
  op.flops_per_iter = 1;
  op.mem_words_per_iter = 2;
  op.reuse_fraction = 0.0;
  cpu.scalar(op);
  EXPECT_GT(cpu.cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.hw_flops().value(), 10000.0);
}

// --- gather/scatter attribution carve ---------------------------------------

TEST_F(CpuTest, GatherTrafficFilesUnderGatherScatterInSummaryMode) {
  ModeGuard g(trace::Mode::Summary);
  VectorOp op;
  op.n = 4096;
  op.flops_per_elem = 1;
  op.load_words = 1;
  op.gather_words = 1;  // indexed load stream priced above unit stride
  cpu.vec(op);

  const double gs =
      cpu.trace().category_ticks(trace::Category::GatherScatter);
  EXPECT_GT(gs, 0.0);

  // The carve equals the repricing delta against the contiguous twin.
  VectorOp contiguous = op;
  contiguous.gather_words = 0;
  Cpu ref{cfg};
  ref.vec(contiguous);
  EXPECT_DOUBLE_EQ(gs, cpu.cycles() - ref.cycles());

  // Charged categories still sum to the charged cycles (conservation).
  double sum = 0.0;
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const auto c = static_cast<trace::Category>(i);
    if (trace::is_charged_category(c)) sum += cpu.trace().category_ticks(c);
  }
  EXPECT_DOUBLE_EQ(sum, cpu.cycles());
}

TEST_F(CpuTest, GatherScatterCarveComesOutOfThePipeCategory) {
  VectorOp op;
  op.n = 4096;
  op.flops_per_elem = 1;
  op.load_words = 1;
  op.scatter_words = 1;

  Cpu summary{cfg};
  {
    ModeGuard g(trace::Mode::Summary);
    summary.vec(op);
  }
  Cpu off{cfg};
  {
    ModeGuard g(trace::Mode::Off);
    off.vec(op);
  }

  // Every mode books the same split, category for category.
  EXPECT_EQ(summary.cycles(), off.cycles());
  for (int c = 0; c < trace::kCategoryCount; ++c) {
    const auto cat = static_cast<trace::Category>(c);
    EXPECT_EQ(off.trace().category_ticks(cat),
              summary.trace().category_ticks(cat))
        << trace::to_string(cat);
  }

  // The gather/scatter premium is carved out of the pipe category.
  const double gs = off.trace().category_ticks(trace::Category::GatherScatter);
  EXPECT_GT(gs, 0.0);
  EXPECT_DOUBLE_EQ(off.trace().category_ticks(trace::Category::VectorMul) + gs,
                   off.cycles());
}

TEST_F(CpuTest, PriceIsIndependentOfTraceMode) {
  // A Price made in off mode and charged in summary mode files every
  // category exactly as a summary-mode charge does.
  VectorOp strided;
  strided.n = 777;
  strided.flops_per_elem = 3;
  strided.load_words = 2;
  strided.gather_words = 1;
  strided.load_stride = 4;
  ScalarOp loop;
  loop.iters = 500;
  loop.flops_per_iter = 2;
  loop.mem_words_per_iter = 3;
  loop.working_set_bytes = 1 << 20;

  Cpu priced{cfg};
  const ModeGuard guard(trace::Mode::Off);
  const Cpu::Price v = priced.price(strided);
  const Cpu::Price s = priced.price(loop);
  trace::set_mode(trace::Mode::Summary);  // the guard restores the mode

  Cpu direct{cfg};
  direct.vec(strided, 5);
  priced.charge(v, 5);
  direct.scalar(loop);
  priced.charge(s);
  EXPECT_EQ(priced.cycles(), direct.cycles());
  for (int c = 0; c < trace::kCategoryCount; ++c) {
    const auto cat = static_cast<trace::Category>(c);
    EXPECT_EQ(priced.trace().category_ticks(cat),
              direct.trace().category_ticks(cat))
        << trace::to_string(cat);
  }
  // Each split is present, so the comparison above covers all three.
  EXPECT_GT(direct.trace().category_ticks(trace::Category::BankConflict), 0);
  EXPECT_GT(direct.trace().category_ticks(trace::Category::GatherScatter), 0);
  EXPECT_GT(direct.trace().category_ticks(trace::Category::CacheMiss), 0);
}

TEST_F(CpuTest, StridedPriceIsOneLookupInSummaryMode) {
  // The attribution splits share the op's cache entry: no twin lookups.
  const ModeGuard guard(trace::Mode::Summary);
  VectorOp op;
  op.n = 1000;
  op.flops_per_elem = 1;
  op.load_words = 2;
  op.load_stride = 8;
  cpu.price(op);
  cpu.price(op);
  EXPECT_EQ(cpu.cost_cache_misses(), 1u);
  EXPECT_EQ(cpu.cost_cache_hits(), 1u);
}

TEST_F(CpuTest, ExplicitCategoryOverloadFilesUnderIt) {
  ModeGuard g(trace::Mode::Summary);
  VectorOp op;
  op.n = 4096;
  op.flops_per_elem = 2;   // memory-bound so the gather premium is visible
  op.gather_words = 4;     // the SLT bilinear corners
  op.load_words = 5;
  op.store_words = 1;
  op.pipe_groups = 2;
  cpu.vec(op, 64, trace::Category::SltInterp);

  // The pipe share lands under the explicit category instead of
  // vector_mul; the gather carve still comes out of it as usual.
  EXPECT_GT(cpu.trace().category_ticks(trace::Category::SltInterp), 0.0);
  EXPECT_DOUBLE_EQ(cpu.trace().category_ticks(trace::Category::VectorMul),
                   0.0);
  EXPECT_GT(cpu.trace().category_ticks(trace::Category::GatherScatter), 0.0);

  // Charged categories still sum to the charged cycles (conservation).
  double sum = 0.0;
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const auto c = static_cast<trace::Category>(i);
    if (trace::is_charged_category(c)) sum += cpu.trace().category_ticks(c);
  }
  EXPECT_DOUBLE_EQ(sum, cpu.cycles());
}

TEST_F(CpuTest, ExplicitCategoryChargeIsInvariantAcrossModesAndOverloads) {
  VectorOp op;
  op.n = 128;
  op.flops_per_elem = 28;
  op.gather_words = 4;
  op.load_words = 5;
  op.store_words = 1;
  op.pipe_groups = 2;

  Cpu off{cfg};
  {
    ModeGuard g(trace::Mode::Off);
    off.vec(op, 64, trace::Category::SltInterp);
  }
  Cpu summary{cfg};
  {
    ModeGuard g(trace::Mode::Summary);
    summary.vec(op, 64, trace::Category::SltInterp);
  }
  Cpu implicit{cfg};
  {
    ModeGuard g(trace::Mode::Off);
    implicit.vec(op, 64);
  }

  // The attribution category never perturbs the cycle or flop accounting,
  // and neither does the tracing mode.
  EXPECT_EQ(off.cycles(), summary.cycles());
  EXPECT_EQ(off.cycles(), implicit.cycles());
  EXPECT_EQ(off.hw_flops().value(), implicit.hw_flops().value());
  EXPECT_EQ(off.equiv_flops().value(), implicit.equiv_flops().value());
}

TEST_F(CpuTest, StrideAndGatherCarvesCoexist) {
  ModeGuard g(trace::Mode::Summary);
  VectorOp op;
  op.n = 4096;
  op.flops_per_elem = 1;
  op.load_words = 2;
  op.load_stride = 8;      // bank-conflict premium
  op.gather_words = 0.5;   // plus indexed traffic
  cpu.vec(op, 3);

  const double conflict =
      cpu.trace().category_ticks(trace::Category::BankConflict);
  const double gs =
      cpu.trace().category_ticks(trace::Category::GatherScatter);
  EXPECT_GT(conflict, 0.0);
  EXPECT_GT(gs, 0.0);
  double sum = 0.0;
  for (int i = 0; i < trace::kCategoryCount; ++i) {
    const auto c = static_cast<trace::Category>(i);
    if (trace::is_charged_category(c)) sum += cpu.trace().category_ticks(c);
  }
  EXPECT_DOUBLE_EQ(sum, cpu.cycles());
}

// Property sweep: every intrinsic has positive cost and a vector rate below
// the machine's arithmetic limit.
class IntrinsicParam : public ::testing::TestWithParam<Intrinsic> {};

TEST_P(IntrinsicParam, VectorRateBelowPipeLimit) {
  const auto cfg = MachineConfig::sx4_benchmarked();
  Cpu cpu{cfg};
  const long n = 1 << 20;
  cpu.intrinsic(GetParam(), n);
  const double calls_per_s = n / cpu.seconds();
  EXPECT_GT(calls_per_s, 0.0);
  // A call costs at least one result through the pipes.
  EXPECT_LT(calls_per_s, cfg.peak_flops_per_cpu());
}

TEST_P(IntrinsicParam, EquivalentFlopsArePositiveAndBelowHardware) {
  const auto cost = ncar::sxs::intrinsic_cost(GetParam());
  EXPECT_GT(cost.equiv_flops, 0.0);
  EXPECT_GT(cost.hw_flops + cost.hw_div, 0.0);
  // Cray counted fewer flops than the polynomial evaluation actually costs.
  EXPECT_LE(cost.equiv_flops, cost.hw_flops + cost.hw_div * 4);
}

INSTANTIATE_TEST_SUITE_P(AllIntrinsics, IntrinsicParam,
                         ::testing::Values(Intrinsic::Exp, Intrinsic::Log,
                                           Intrinsic::Pow, Intrinsic::Sin,
                                           Intrinsic::Cos, Intrinsic::Sqrt));

}  // namespace
