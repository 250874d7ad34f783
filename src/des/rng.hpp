#pragma once
// Named per-stream deterministic random numbers for the DES kernel.
//
// The OMNeT++ lesson (SNIPPETS.md snippet 3): every model component draws
// from its *own* named stream, so adding a component — or reordering event
// execution — never perturbs anyone else's draws. Two properties make that
// hold here:
//
//   * a stream's key is a pure function of (registry seed, stream name) —
//     creation order and lookup order are irrelevant;
//   * the generator is counter-based (the splitmix64 construction: draw n
//     of key k is finalize(k + (n+1)*PHI)), so draw n depends only on the
//     stream key and n, never on other streams' state. Interleaving any
//     number of draws on stream B between draws on stream A leaves A's
//     sequence byte-identical, and skip-ahead is O(1).
//
// All distribution helpers consume a fixed number of u64 draws per call
// (inverse-transform, never rejection) so `draws()` is a pure function of
// the call sequence — the determinism tests rely on that.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace ncar::des {

/// One named, counter-based random stream. Cheap to copy; copies continue
/// the counter independently (tests use this for replay).
class RngStream {
public:
  RngStream() = default;
  RngStream(std::string name, std::uint64_t key)
      : name_(std::move(name)), key_(key) {}

  const std::string& name() const { return name_; }
  std::uint64_t key() const { return key_; }
  /// Number of u64 draws consumed so far.
  std::uint64_t draws() const { return counter_; }

  /// Draw counter `n` of this stream, without advancing (pure function).
  std::uint64_t at(std::uint64_t n) const;

  std::uint64_t next_u64() { return at(counter_++); }

  /// Skip `n` draws in O(1) — counter-based generators jump for free.
  void skip(std::uint64_t n) { counter_ += n; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in (0, 1] (safe as a log() argument).
  double next_double_nonzero() {
    return static_cast<double>((next_u64() >> 11) + 1) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }
  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Exponential with the given mean (one draw).
  double exponential(double mean);
  /// Pareto (heavy tail): P(X > x) = (scale/x)^shape for x >= scale.
  double pareto(double shape, double scale);
  /// Bounded Pareto on [scale, cap] — heavy-tailed service times whose
  /// worst case cannot blow up a year-scale run (one draw).
  double bounded_pareto(double shape, double scale, double cap);
  /// Poisson via inversion by sequential search (one draw). Meant for
  /// small means (batch sizes); cost is O(mean).
  long poisson(double mean);
  /// Weighted choice: index i with probability weights[i] / sum (one
  /// draw). Precondition: n > 0, nonnegative weights, positive sum.
  std::size_t weighted_choice(const double* weights, std::size_t n);

private:
  std::string name_;
  std::uint64_t key_ = 0;
  std::uint64_t counter_ = 0;
};

/// The registry: hands out streams by name, creating them on first use.
/// References are stable for the registry's lifetime.
class RngRegistry {
public:
  explicit RngRegistry(std::uint64_t seed) : seed_(seed) {}

  /// The stream named `name` (created on first use). The stream's key —
  /// hence its entire sequence — depends only on (seed, name).
  RngStream& stream(std::string_view name);

  std::uint64_t seed() const { return seed_; }

  /// The key `stream(name)` would use, without creating anything.
  static std::uint64_t derive_key(std::uint64_t seed, std::string_view name);

private:
  std::uint64_t seed_;
  std::map<std::string, RngStream, std::less<>> streams_;
};

}  // namespace ncar::des
