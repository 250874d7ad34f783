#include "sxs/memory_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/quantity.hpp"
#include "sxs/machine_config.hpp"

namespace {

using ncar::sxs::MachineConfig;
using ncar::sxs::MemoryModel;

/// The conflict factor written out longhand (gcd folding, bank-cycle
/// demand): the oracle for MemoryModel::stride_conflict_factor.
double longhand(const MachineConfig& cfg, long stride) {
  stride = std::labs(stride);
  if (stride <= 2) return 1.0;
  const long banks = cfg.memory_banks;
  const long visited = banks / std::gcd(stride, banks);
  const double demand =
      ncar::to_words(cfg.port_bytes_per_clock).value() * cfg.bank_cycle_clocks;
  return std::max(cfg.strided_port_divisor,
                  demand / static_cast<double>(visited));
}

class MemoryModelTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_product();
  MemoryModel mem{cfg};
};

TEST_F(MemoryModelTest, UnitStrideRunsAtFullPortWidth) {
  // 16 words per clock at the 16 GB/s port (128 bytes / 8-byte words).
  EXPECT_DOUBLE_EQ(mem.port_words_per_clock().value(), 16.0);
  EXPECT_DOUBLE_EQ(mem.stream_cycles(1600, 1).value(), 100.0);
}

TEST_F(MemoryModelTest, StrideTwoIsConflictFree) {
  // Paper section 2.2: "Conflict free unit stride as well as stride 2
  // access is guaranteed".
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(2), 1.0);
  EXPECT_DOUBLE_EQ(mem.stream_cycles(1600, 2).value(),
                   mem.stream_cycles(1600, 1).value());
}

TEST_F(MemoryModelTest, SmallOddStridesBenefitFromShortBankCycle) {
  // With 1024 banks and a 2-clock bank cycle, moderate strides visit enough
  // banks that only the baseline strided penalty applies ("higher strides
  // ... benefit from the very short bank cycle time" — slower than unit
  // stride, but far from pathological).
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(3), cfg.strided_port_divisor);
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(7), cfg.strided_port_divisor);
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(100), cfg.strided_port_divisor);
}

TEST_F(MemoryModelTest, PowerOfTwoStridesConflict) {
  // A stride equal to the bank count folds everything onto one bank.
  const double f = mem.stride_conflict_factor(cfg.memory_banks);
  EXPECT_GT(f, 1.0);
  // Demand is 16 words/clock * 2-clock bank cycle on a single bank.
  EXPECT_DOUBLE_EQ(f, 32.0);
}

TEST_F(MemoryModelTest, HalfBankStrideConflictsLess) {
  const double f_full = mem.stride_conflict_factor(cfg.memory_banks);
  const double f_half = mem.stride_conflict_factor(cfg.memory_banks / 2);
  EXPECT_GT(f_half, 1.0);
  EXPECT_LT(f_half, f_full);
}

TEST_F(MemoryModelTest, NegativeStrideTreatedAsPositive) {
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(-1), 1.0);
  EXPECT_DOUBLE_EQ(mem.stride_conflict_factor(-1024),
                   mem.stride_conflict_factor(1024));
}

TEST_F(MemoryModelTest, GatherSlowerThanStream) {
  const long n = 100000;
  EXPECT_GT(mem.gather_cycles(n), mem.stream_cycles(n, 1));
  EXPECT_DOUBLE_EQ(mem.gather_cycles(n).value(),
                   (mem.stream_cycles(n, 1) * cfg.gather_port_divisor).value());
}

TEST_F(MemoryModelTest, ScatterSlowerThanStream) {
  const long n = 100000;
  EXPECT_DOUBLE_EQ(mem.scatter_cycles(n).value(),
                   (mem.stream_cycles(n, 1) * cfg.scatter_port_divisor).value());
}

TEST_F(MemoryModelTest, ZeroWordsIsFree) {
  EXPECT_DOUBLE_EQ(mem.stream_cycles(0, 1).value(), 0.0);
  EXPECT_DOUBLE_EQ(mem.gather_cycles(0).value(), 0.0);
  EXPECT_DOUBLE_EQ(mem.scatter_cycles(0).value(), 0.0);
}

TEST_F(MemoryModelTest, NegativeWordCountThrows) {
  EXPECT_THROW(mem.stream_cycles(-1, 1), ncar::precondition_error);
  EXPECT_THROW(mem.gather_cycles(-1), ncar::precondition_error);
}

TEST_F(MemoryModelTest, ConflictFactorMatchesLonghandFormula) {
  // Bit-for-bit, for strides up to and beyond the bank count.
  for (long s : {0L, 1L, 2L, 3L, 5L, 64L, 512L, 1023L, 1024L, 1025L, 1536L,
                 2048L, 3072L, 100000L}) {
    EXPECT_EQ(mem.stride_conflict_factor(s), longhand(cfg, s))
        << "stride " << s;
    EXPECT_EQ(mem.stride_conflict_factor(-s), longhand(cfg, s))
        << "stride " << -s;
  }
}

TEST_F(MemoryModelTest, StridesFoldByGcdPeriodicity) {
  // gcd(s, B) == gcd(s mod B, B): a stride beyond the bank count shares its
  // conflict geometry with its representative in [1, B].
  const long banks = cfg.memory_banks;
  for (long s : {banks + 3, banks + 64, 3 * banks, 5 * banks + 512}) {
    long rep = s % banks == 0 ? banks : s % banks;
    if (rep <= 2) continue;  // representative is conflict-free by fiat
    EXPECT_EQ(mem.stride_conflict_factor(s), mem.stride_conflict_factor(rep))
        << "stride " << s;
  }
}

TEST(MemoryModelBanks, HugeBankCountBuildsAndPricesInConstantSpace) {
  // A valid 2^30-bank machine: building its model must not depend on the
  // bank count, and strides on either side of it price per the formula.
  auto cfg = MachineConfig::sx4_product();
  cfg.memory_banks = 1 << 30;
  cfg.validate();
  const MemoryModel mem{cfg};
  for (long s : {3L, 1L << 29, (1L << 30) + 3}) {
    EXPECT_EQ(mem.stride_conflict_factor(s), longhand(cfg, s))
        << "stride " << s;
  }
  // 2^29 visits two banks: demand 16 words * 2 clocks over 2 banks.
  EXPECT_EQ(mem.stride_conflict_factor(1L << 29), 16.0);
}

TEST(MemoryModelBanks, FewerBanksConflictSooner) {
  auto small = MachineConfig::sx4_product();
  small.memory_banks = 64;
  MemoryModel mem_small{small};
  auto big = MachineConfig::sx4_product();
  MemoryModel mem_big{big};
  // Stride 64: on a 64-bank machine all requests hit one bank.
  EXPECT_GT(mem_small.stride_conflict_factor(64),
            mem_big.stride_conflict_factor(64));
}

}  // namespace
