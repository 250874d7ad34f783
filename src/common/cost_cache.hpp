#pragma once
// Memoization cache for analytic cost evaluations.
//
// The timing model prices the same operation descriptor over and over: every
// latitude row of CCM2 charges the same Legendre-pass VectorOp, every SOR
// sweep of MOM re-prices the same per-row stencil op, and the PRODLOAD /
// ensemble replays repeat whole charge sequences. The priced cost is a pure
// function of (descriptor, machine configuration), so each distinct
// descriptor needs to be evaluated exactly once per evaluator.
//
// CostCache is a small open-addressing hash table (linear probing) from a
// descriptor key to its cached value. Determinism argument: the cached value
// IS what the uncached evaluation produced on first sight, so a hit replays
// the bit-identical result — simulated numbers cannot drift, no matter how
// the cache behaves. The hits()/misses() counters are threaded into the
// bench reporter JSON so the win stays observable.
//
// Sizing: the table grows by doubling at 50% load until `kMaxSlots`; past
// that, a colliding insert overwrites the oldest slot of its probe window.
// Both policies depend only on the insertion sequence, so counter values are
// deterministic and policy-invariant (each sxs::Cpu owns its caches and is
// charged by exactly one rank at a time).
//
// Allocation: constructing a cache allocates nothing; the first get() does.
// A fresh table is an allocation of slots whose keys and values stay
// uninitialised until inserted, plus a separate occupancy array, the only
// part that is zeroed. An evaluator that never prices an op of some kind
// pays nothing for that kind's cache.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace ncar {

/// Mix a field's hash into a running seed (boost-style combiner).
inline void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

template <class Key, class Value, class Hash, class Eq = std::equal_to<Key>>
class CostCache {
  static_assert(std::is_trivially_copyable_v<Key>,
                "slots hold keys in uninitialised storage");

public:
  explicit CostCache(std::size_t initial_slots = 256)
      : initial_slots_(initial_slots) {
    NCAR_REQUIRE(initial_slots >= kProbeWindow &&
                     (initial_slots & (initial_slots - 1)) == 0,
                 "slot count must be a power of two");
  }

  /// The cached cost of `key`, computing it with `compute()` on first sight.
  template <class Fn>
  Value get(const Key& key, Fn&& compute) {
    if (capacity_ == 0) allocate(initial_slots_);
    const std::size_t mask = capacity_ - 1;
    std::size_t pos = Hash{}(key)&mask;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      const std::size_t i = (pos + probe) & mask;
      if (!used_[i]) {
        ++misses_;
        // Return the local copy: grow() may reallocate the slots.
        const Value value = compute();
        put(i, key, value);
        if (++occupied_ * 2 > capacity_) grow();
        return value;
      }
      if (Eq{}(slots_[i].key, key)) {
        ++hits_;
        return slots_[i].value;
      }
    }
    // Probe window exhausted (only reachable at kMaxSlots): overwrite the
    // window's rotating victim. Deterministic in the insertion sequence.
    ++misses_;
    const Value value = compute();
    put((pos + evict_rotor_++ % kProbeWindow) & mask, key, value);
    return value;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return occupied_; }
  /// Slots allocated: 0 until the first get().
  std::size_t capacity() const { return capacity_; }

  /// Drop every entry and zero the counters; the capacity is kept.
  void clear() {
    std::fill_n(used_.get(), capacity_, false);
    occupied_ = 0;
    hits_ = misses_ = 0;
    evict_rotor_ = 0;
  }

private:
  struct Slot {
    Slot() {}  // key and value stay uninitialised until put()
    union {
      Key key;
    };
    union {
      Value value;
    };
  };

  static constexpr std::size_t kProbeWindow = 16;
  static constexpr std::size_t kMaxSlots = 1u << 16;

  // allocate() and grow() stay out of line so that get()'s hit path is small
  // enough to inline into its callers: pricing is mostly hits.
  [[gnu::noinline]] void allocate(std::size_t slots) {
    slots_ = std::make_unique_for_overwrite<Slot[]>(slots);
    used_ = std::make_unique<bool[]>(slots);
    capacity_ = slots;
  }

  void put(std::size_t i, const Key& key, const Value& value) {
    std::construct_at(&slots_[i].key, key);
    std::construct_at(&slots_[i].value, value);
    used_[i] = true;
  }

  [[gnu::noinline]] void grow() {
    if (capacity_ >= kMaxSlots) return;
    std::unique_ptr<Slot[]> old_slots = std::move(slots_);
    std::unique_ptr<bool[]> old_used = std::move(used_);
    const std::size_t old_capacity = capacity_;
    allocate(old_capacity * 2);
    const std::size_t mask = capacity_ - 1;
    for (std::size_t j = 0; j < old_capacity; ++j) {
      if (!old_used[j]) continue;
      std::size_t pos = Hash{}(old_slots[j].key) & mask;
      while (used_[pos]) pos = (pos + 1) & mask;
      put(pos, old_slots[j].key, old_slots[j].value);
    }
  }

  std::size_t initial_slots_;
  std::size_t capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<bool[]> used_;  ///< occupancy, zeroed per fresh table
  std::size_t occupied_ = 0;
  std::size_t evict_rotor_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ncar
