#pragma once
// Simulated-cycle attribution taxonomy.
//
// The paper's argument is an attribution argument: Tables 1-7 decompose each
// benchmark's time into vector-pipe work, scalar issue, bank conflicts, and
// IXS / barrier communication. Category is that decomposition as a type:
// every cycle charged against a simulated Cpu (and every overhead the node
// runtime adds on top) is filed under exactly one category, so the model can
// report *why* a curve has its shape, not just its end-to-end seconds.
//
// Charged categories (they appear in per-CPU attribution tables and must sum
// to the CPU's charged cycles — see trace::build_attribution):
//   vector_add      single-pipe-group vector arithmetic
//   vector_mul      multi-group (madd-style) vector arithmetic + intrinsics
//   vector_div      divide/sqrt-pipe-bound vector loops
//   vector_logical  flop-free vector loops (copies, masks, shifts)
//   scalar          superscalar issue of cache-style code
//   cache_miss      data-cache miss stall cycles of scalar loops
//   bank_conflict   memory-bank conflict inflation: stride conflicts plus
//                   the multi-CPU contention factor
//   gather_scatter  indexed (gather/scatter) memory traffic priced above
//                   the unit-stride rate — split out of the vector pipe
//                   categories so irregular access shows up separately
//   slt_interp      semi-Lagrangian transport interpolation: the
//                   gather-heavy SLT loops of CCM2, filed apart from the
//                   rest of the dynamics so the paper's "SLT is the
//                   irregular part" argument is visible in the tables
//   ixs_transfer    internode crossbar transfer waits
//   io_xmu          XMU (semiconductor-disk) staging
//   io_disk         conventional-disk transfers
//   io_hippi        HIPPI channel transfers
//   other           charges explicitly filed as other + attribution
//                   rounding residue (no charge entry point defaults to it)
//
// Node-runtime categories (recorded on the node track, never charged to a
// Cpu, so they sit outside the per-CPU conservation sum):
//   barrier         macrotask / communications-register barrier cost
//   idle            rank cycles lost waiting for the slowest rank of a
//                   parallel region

#include <cstdint>

namespace ncar::trace {

enum class Category : std::uint8_t {
  VectorAdd = 0,
  VectorMul,
  VectorDiv,
  VectorLogical,
  Scalar,
  CacheMiss,
  BankConflict,
  GatherScatter,
  SltInterp,
  IxsTransfer,
  Barrier,
  IoXmu,
  IoDisk,
  IoHippi,
  Idle,
  Other,  // keep last: build_attribution uses it as the residual bucket
};

inline constexpr int kCategoryCount = static_cast<int>(Category::Other) + 1;

/// Stable snake_case name ("vector_add", "bank_conflict", ...) used in
/// attribution metric names and Chrome trace "cat" fields.
const char* to_string(Category c);

/// Charged categories participate in the per-CPU conservation sum; Barrier
/// and Idle are node-runtime overheads recorded outside the Cpus.
constexpr bool is_charged_category(Category c) {
  return c != Category::Barrier && c != Category::Idle;
}

// --- tracing mode ----------------------------------------------------------

enum class Mode : std::uint8_t {
  Off,      ///< per-category counters (kept in every mode), nothing exported
  Summary,  ///< + attribution tables in bench JSON
  Full,     ///< Stream, then the .sxt converted to Chrome trace JSON
  Stream,   ///< + spans streamed to a binary .sxt sink (trace/stream/)
};

/// True when the current mode records spans at all: Full and Stream both
/// forward them to the Collector's attached binary sink. Summary/Off
/// record counters only.
constexpr bool spans_enabled(Mode m) {
  return m == Mode::Full || m == Mode::Stream;
}

/// Process-wide tracing mode: initialised from SX4NCAR_TRACE
/// (common/knobs.hpp; unset or empty is Off) on first use. Throws
/// ncar::config_error, again on every call, while the value is malformed.
Mode mode();

/// Override the process-wide mode (tests and bench mains).
void set_mode(Mode m);

const char* to_string(Mode m);

}  // namespace ncar::trace
