#include "common/cost_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/error.hpp"

namespace {

struct Key {
  int a = 0;
  int b = 0;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::size_t seed = 0;
    ncar::hash_combine(seed, static_cast<std::size_t>(k.a));
    ncar::hash_combine(seed, static_cast<std::size_t>(k.b));
    return seed;
  }
};

using Cache = ncar::CostCache<Key, double, KeyHash>;

double cost_of(const Key& k) {
  // Deliberately irrational so bit-identity of replayed values means
  // something: any recomputation must reproduce exactly this double.
  return std::sqrt(2.0 + k.a) * 1.37 + k.b / 7.0;
}

// A struct value, shaped like sxs::Cpu's entries (cycles plus splits).
struct Costs {
  double cycles, base, split;
};
using StructCache = ncar::CostCache<Key, Costs, KeyHash>;

Costs costs_of(const Key& k) {
  const double c = cost_of(k);
  return {c, c / 3.0, -0.0};  // -0.0: bit-for-bit, not just ==
}

bool same_bits(const Costs& a, const Costs& b) {
  return std::memcmp(&a, &b, sizeof(Costs)) == 0;
}

TEST(CostCache, FirstGetComputesLaterGetsReplay) {
  Cache cache;
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return cost_of({3, 4});
  };
  const double first = cache.get({3, 4}, compute);
  const double second = cache.get({3, 4}, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first, second);  // bit-identical, not just close
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CostCache, DistinctKeysAreDistinctEntries) {
  Cache cache;
  const double a = cache.get({1, 0}, [] { return 10.0; });
  const double b = cache.get({0, 1}, [] { return 20.0; });
  EXPECT_DOUBLE_EQ(a, 10.0);
  EXPECT_DOUBLE_EQ(b, 20.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CostCache, GrowthPreservesEveryEntry) {
  Cache cache(16);  // small start: many doublings on the way to 1000 keys
  for (int i = 0; i < 1000; ++i) {
    cache.get({i, -i}, [&] { return cost_of({i, -i}); });
  }
  EXPECT_EQ(cache.misses(), 1000u);
  EXPECT_GE(cache.capacity(), 2000u);
  // Every key must replay its original value without recomputation.
  for (int i = 0; i < 1000; ++i) {
    const double v = cache.get({i, -i}, [] { return -1.0; });
    EXPECT_EQ(v, cost_of({i, -i}));
  }
  EXPECT_EQ(cache.hits(), 1000u);

  // A struct value survives every doubling bit for bit.
  StructCache structs(16);
  for (int i = 0; i < 1000; ++i) {
    structs.get({i, -i}, [&] { return costs_of({i, -i}); });
  }
  for (int i = 0; i < 1000; ++i) {
    const Costs v = structs.get({i, -i}, [] { return Costs{-1, -1, -1}; });
    EXPECT_TRUE(same_bits(v, costs_of({i, -i}))) << i;
  }
  EXPECT_EQ(structs.hits(), 1000u);
}

TEST(CostCache, SaturatedCacheStillReturnsCorrectValues) {
  // Past kMaxSlots (1 << 16) the table stops growing and a colliding insert
  // evicts within its probe window. Correctness must not depend on whether
  // a key survived: get() returns compute()'s value either way.
  Cache cache;
  const int n = 90000;
  for (int i = 0; i < n; ++i) {
    cache.get({i, i / 3}, [&] { return cost_of({i, i / 3}); });
  }
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(cache.capacity(), std::size_t{1} << 16);
  std::uint64_t replays = 0;
  for (int i = 0; i < n; ++i) {
    const Key k{i, i / 3};
    const double v = cache.get(k, [&] { return cost_of(k); });
    EXPECT_EQ(v, cost_of(k));
    if (cache.hits() > replays) replays = cache.hits();
  }
  // Most of the working set was evicted-over, but whatever survived must
  // have replayed, and every call was either a hit or a (re)miss.
  EXPECT_GT(replays, 0u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(2 * n));

  // The same sequence through a struct-valued cache: a survivor of the
  // evictions replays its struct bit for bit, a victim recomputes it.
  StructCache structs;
  for (int i = 0; i < n; ++i) {
    structs.get({i, i / 3}, [&] { return costs_of({i, i / 3}); });
  }
  for (int i = 0; i < n; ++i) {
    const Key k{i, i / 3};
    const Costs v = structs.get(k, [&] { return costs_of(k); });
    EXPECT_TRUE(same_bits(v, costs_of(k))) << i;
  }
  EXPECT_EQ(structs.hits(), cache.hits());  // eviction ignores the value
}

TEST(CostCache, ClearDropsEntriesAndCounters) {
  Cache cache;
  cache.get({1, 1}, [] { return 5.0; });
  cache.get({1, 1}, [] { return 5.0; });
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  int computed = 0;
  cache.get({1, 1}, [&] {
    ++computed;
    return 5.0;
  });
  EXPECT_EQ(computed, 1);
}

TEST(CostCache, AllocatesOnFirstGetAndClearKeepsCapacity) {
  Cache cache(32);
  EXPECT_EQ(cache.capacity(), 0u);  // constructing allocates nothing
  cache.clear();                    // nor does clearing an empty cache
  EXPECT_EQ(cache.capacity(), 0u);
  cache.get({1, 2}, [] { return 3.0; });
  EXPECT_EQ(cache.capacity(), 32u);
  cache.clear();
  EXPECT_EQ(cache.capacity(), 32u);
  EXPECT_EQ(cache.get({1, 2}, [] { return 4.0; }), 4.0);  // entry was dropped
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CostCache, RejectsBadSlotCounts) {
  EXPECT_THROW(Cache(100), ncar::precondition_error);  // not a power of two
  EXPECT_THROW(Cache(8), ncar::precondition_error);    // below probe window
}

}  // namespace
