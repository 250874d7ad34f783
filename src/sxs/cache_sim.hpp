#pragma once
// Set-associative cache simulator (true LRU).
//
// The SX-4 scalar unit has 64 KB instruction and 64 KB data caches (paper
// section 2.1, Figure 4). The analytic scalar timing model in ScalarUnit is
// calibrated against this reference simulator; tests drive both against the
// same access streams.

#include <cstdint>
#include <vector>

#include "sxs/machine_config.hpp"

namespace ncar::sxs {

class CacheSim {
public:
  /// `size_bytes` total capacity, `line_bytes` per line, `ways` associativity.
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, int ways);

  /// Build from a machine configuration's data-cache parameters.
  static CacheSim dcache(const MachineConfig& cfg) {
    return CacheSim(cfg.dcache_bytes, cfg.cache_line_bytes, cfg.cache_ways);
  }

  /// Access one byte address; returns true on hit. Loads and stores are
  /// treated alike (write-allocate, write-back).
  bool access(std::uint64_t addr);

  /// Access every byte in [addr, addr + bytes). Exactly equivalent — same
  /// hit/miss counts, same tick and LRU state — to calling access() once per
  /// byte, but charges whole line-runs with a single tag probe each.
  void access_range(std::uint64_t addr, std::uint64_t bytes);

  /// Access the `n` byte addresses base, base + stride, ..., in order
  /// (stride is a forward byte distance). Exactly equivalent to the
  /// corresponding access() sequence; sub-line strides collapse runs of
  /// same-line accesses into one probe.
  void access_stream(std::uint64_t base, std::uint64_t stride, std::size_t n);

  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  double miss_rate() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(misses_) / static_cast<double>(accesses());
  }

  std::size_t sets() const { return sets_; }
  std::size_t line_bytes() const { return line_bytes_; }
  int ways() const { return ways_; }

  /// Typed capacity / line size (common/quantity.hpp) for model code that
  /// reasons about cache volume in the same dimension system as the rest of
  /// the timing model.
  Bytes capacity() const {
    return Bytes(static_cast<double>(sets_ * static_cast<std::size_t>(ways_) *
                                     line_bytes_));
  }

private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  /// Charge `run` consecutive byte accesses that all land on line
  /// `line_addr`. Only the final access's tick can matter for LRU state
  /// (no other line in the set is touched in between), so one probe with
  /// `tick_ += run` reproduces the per-byte bookkeeping exactly.
  bool touch_line(std::uint64_t line_addr, std::uint64_t run);

  std::size_t line_bytes_;
  std::size_t sets_;
  int ways_;
  std::vector<Line> lines_;  // sets_ * ways_, row-major by set
  std::vector<int> mru_way_;  // per-set most-recently-hit way, probed first
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ncar::sxs
