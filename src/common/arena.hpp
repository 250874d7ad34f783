#pragma once
// Bump-pointer workspace arena for allocation-free hot paths.
//
// Kernel step functions used to construct per-step std::vector workspaces;
// the hot path must not allocate (tests/integration/test_hot_alloc.cpp
// counts every operator new after a warm-up call). An
// Arena owns one pre-sized pool (allocated at setup time) and hands out
// spans by bumping an offset — take() never touches the heap. ArenaScope
// restores the offset on scope exit, so nested transforms (SHT -> real FFT)
// stack their workspaces like frames.
//
// The pool is sized once while idle (reserve() requires no spans are live);
// overflowing a take() is a precondition error, not a grow — growth on the
// hot path is exactly the bug the arena exists to remove.

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ncar {

class Arena {
public:
  Arena() = default;
  explicit Arena(std::size_t doubles) { reserve(doubles); }

  /// (Re)size the pool, in units of doubles. Only legal while no spans are
  /// outstanding — the pool may move.
  void reserve(std::size_t doubles) {
    NCAR_REQUIRE(used_ == 0, "cannot resize an arena with live spans");
    if (doubles > pool_.size()) pool_.resize(doubles);
  }

  /// Bump-allocate `count` objects of trivially-destructible type T
  /// (alignment at most that of double). Contents are uninitialised.
  template <typename T>
  std::span<T> take(std::size_t count) {
    static_assert(alignof(T) <= alignof(double),
                  "arena storage is double-aligned");
    static_assert(sizeof(T) % sizeof(double) == 0,
                  "arena is sized in doubles");
    const std::size_t doubles = count * (sizeof(T) / sizeof(double));
    NCAR_REQUIRE(used_ + doubles <= pool_.size(), "arena overflow");
    T* p = reinterpret_cast<T*>(pool_.data() + used_);
    used_ += doubles;
    return std::span<T>(p, count);
  }

  /// Current offset; pass back to release_to() to drop everything taken
  /// since. ArenaScope does this automatically.
  std::size_t mark() const { return used_; }
  void release_to(std::size_t m) {
    NCAR_REQUIRE(m <= used_, "arena release past the live frontier");
    used_ = m;
  }

  std::size_t capacity() const { return pool_.size(); }
  std::size_t used() const { return used_; }

private:
  std::vector<double> pool_;
  std::size_t used_ = 0;
};

/// RAII frame: releases everything taken from `arena` since construction.
class ArenaScope {
public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_->release_to(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

private:
  Arena* arena_;
  std::size_t mark_;
};

}  // namespace ncar
