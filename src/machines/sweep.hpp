#pragma once
// Design-space sweep engine (DESIGN.md section 10).
//
// The paper's Table 1 asks "which architecture wins?" for exactly five
// machines; the sweep engine asks it for thousands. A Grid expands
// parameter ranges (pipes, vector length, banks, port width, cache shape)
// over a base MachineDescription into a lazy cartesian product — configs
// are materialised one at a time from an index, never as a list, so
// pending-config memory stays bounded no matter how large the product.
//
// Charging a real kernel against every config would re-run the numerics
// thousands of times, so the engine records each kernel ONCE per process:
// an OpSink on a Comparator captures the logical op stream (RADABS 1089
// charges, HINT 49, VFFT 8 with repeat counts), and record_probe() keeps
// it in a function-local static. Recording also interns the stream: each
// charge points at one of the probe's bitwise-distinct descriptors (RADABS
// 23, HINT 2, VFFT 1). Replay against a swept config prices each distinct
// descriptor once on that config, then charges the recorded sequence in
// order from the price table — the same products in the same order as a
// direct run, so every double is unchanged. Each point is then classified
// memory-bound vs compute-bound by perturbation twins — does doubling the
// memory port help more than doubling the arithmetic pipes? — and
// neighbouring points that disagree form the flip boundary the report
// flags.
//
// Determinism: replay is a pure function of (probe, config), points are
// written into a preallocated slot per index, and aggregate counters are
// order-independent integer sums — so the JSON report is byte-identical
// across Sequential and Threaded execution and across repeated runs
// (tests/machines/test_sweep.cpp, bench/design_sweep determinism check).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "machines/description.hpp"
#include "sxs/execution_policy.hpp"

namespace ncar {
class ThreadPool;
}

namespace ncar::machines {

/// One swept parameter: a description key plus the values it takes.
struct Axis {
  std::string key;
  std::vector<double> values;

  friend bool operator==(const Axis&, const Axis&) = default;
};

/// A lazy cartesian grid of machine descriptions: `base` overlaid with one
/// value per axis. Point `i` is decoded mixed-radix (first axis fastest);
/// nothing is materialised until config(i) is called.
class Grid {
public:
  /// Throws ncar::config_error on unknown axis keys, empty value lists,
  /// duplicate axis keys, or a product that overflows size_t.
  Grid(MachineDescription base, std::vector<Axis> axes);

  std::size_t size() const { return size_; }
  const MachineDescription& base() const { return base_; }
  const std::vector<Axis>& axes() const { return axes_; }

  /// Per-axis value indices of point `index` (first axis fastest).
  std::vector<std::size_t> coordinates(std::size_t index) const;
  /// Per-axis parameter values of point `index`.
  std::vector<double> values(std::size_t index) const;
  /// Materialise the description at `index` (base + axis overlays).
  MachineDescription config(std::size_t index) const;
  /// Index of the next point along `axis` (coordinate + 1), or size()
  /// when `index` is already on the grid's edge along that axis.
  std::size_t neighbor(std::size_t index, std::size_t axis) const;

private:
  MachineDescription base_;
  std::vector<Axis> axes_;
  std::size_t size_;
};

/// One recorded charge: a tagged union over the Comparator charging API.
struct ProbeOp {
  enum class Kind { Vector, Scalar, Intrinsic };
  Kind kind = Kind::Vector;
  sxs::VectorOp vec;       ///< Kind::Vector
  long repeats = 1;        ///< Kind::Vector
  sxs::ScalarOp scalar;    ///< Kind::Scalar
  sxs::Intrinsic f = sxs::Intrinsic::Exp;  ///< Kind::Intrinsic
  long calls = 0;          ///< Kind::Intrinsic
  /// Index of this charge's descriptor in Probe::distinct.
  std::size_t slot = 0;
};

/// A kernel's logical op stream, recorded once and replayed per config.
struct Probe {
  std::string kernel;
  /// The recorded charges, in order.
  std::vector<ProbeOp> ops;
  /// The bitwise-distinct descriptors of `ops` (repeat counts aside), in
  /// order of first use: what a replay prices.
  std::vector<ProbeOp> distinct;

  /// Total charges after expanding repeat counts (reporting only).
  double total_charges() const;
};

/// Kernels record_probe understands: "radabs", "hint", "vfft".
std::vector<std::string> probe_kernels();

/// `kernel`'s op stream, recorded on first use by running its numerics
/// once against an SX-4 Comparator with an OpSink attached ("vfft" charges
/// the documented stage structure directly). Each kernel is recorded once
/// per process (thread-safe) and every call returns that one recording.
/// Throws ncar::config_error on unknown names.
const Probe& record_probe(std::string_view kernel);

/// Timing-model replay of a probe against one spec.
struct Replay {
  double seconds = 0;
  double hw_flops = 0;
  /// The price table's counts: each distinct descriptor priced is a miss,
  /// each charge served from the table a hit (hits + misses = charges).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

Replay replay_probe(const Probe& probe, const Spec& spec);

/// The sweep's verdict on one grid point.
struct PointResult {
  std::size_t index = 0;
  std::vector<double> values;  ///< axis parameter values at this point
  bool valid = false;
  std::string error;           ///< lowering failure for invalid points
  double seconds = 0;
  double hw_mflops = 0;
  /// Speedup from doubling the memory port width (the memory twin).
  double memory_gain = 1.0;
  /// Speedup from doubling the arithmetic pipes (the compute twin).
  double compute_gain = 1.0;
  /// True when the memory twin gains at least as much as the compute twin.
  bool memory_bound = false;
  std::uint64_t cache_hits = 0;    ///< not serialised (aggregated)
  std::uint64_t cache_misses = 0;  ///< not serialised (aggregated)
};

/// A grid edge across which the memory-bound classification flips.
struct FlipEdge {
  std::size_t from = 0;  ///< lower point (memory_bound differs from `to`)
  std::size_t to = 0;
  std::string axis;      ///< axis key the edge runs along
};

struct SweepOptions {
  std::string kernel = "radabs";
  /// Host execution policy; simulated results are policy-independent.
  sxs::ExecutionPolicy policy = sxs::default_execution_policy();
  /// Pool for Threaded policy; nullptr means ThreadPool::global().
  ThreadPool* pool = nullptr;
};

struct SweepReport {
  std::string kernel;
  MachineDescription base;
  std::vector<Axis> axes;
  std::vector<PointResult> points;
  std::vector<FlipEdge> flips;
  /// Order-independent sums of the points' Replay price-table counts
  /// (deterministic, serialised).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Peak simultaneously-live replay workspaces (bounded-memory witness:
  /// never exceeds the host thread count). Host-thread-dependent, so NOT
  /// part of to_json().
  int peak_live_workspaces = 0;

  std::size_t valid_count() const;
  std::size_t memory_bound_count() const;
  /// Fastest valid point, ties broken by lower index; nullptr when none.
  const PointResult* fastest() const;

  /// Deterministic JSON: insertion-ordered keys, shortest round-trip
  /// numbers — byte-identical across execution policies and runs.
  std::string to_json() const;
};

/// Replay the kernel's probe over every grid point (each point plus its
/// two perturbation twins), classify, and find flip edges.
SweepReport run_sweep(const Grid& grid, const SweepOptions& opts);

}  // namespace ncar::machines
