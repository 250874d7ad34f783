#pragma once
// Data-driven machine descriptions (DESIGN.md section 10).
//
// The paper's whole argument is architecture-vs-application: the same NCAR
// kernels rank machines differently depending on vector pipes, banks, and
// caches. To explore that space a machine must be a *description* — a
// key-value table of architectural parameters — rather than a C++ preset.
// A MachineDescription is parsed from a catalog table, strictly validated
// (unknown keys, duplicate keys, malformed values and physically
// impossible parameters are all rejected with precise messages), and
// *lowered* onto the existing sxs::MachineConfig / machines::Spec so every
// Comparator is constructed from data.
//
// Lowering rules: a description stores only the keys it sets; every unset
// key inherits the SX-4 default of sxs::MachineConfig. to_table() re-emits
// exactly the set keys, in canonical schema order, with shortest
// round-trip number formatting — so parse(to_table(d)) == d bit-exactly
// (pinned by tests/machines/test_description.cpp).
//
// The builtin catalog re-expresses the four 1996 Table 1 comparators as
// tables (golden-equivalence-tested against the verbatim legacy presets)
// and adds modern vector design points: NEC SX-Aurora TSUBASA
// (arXiv 2304.11921), Fujitsu A64FX/SVE (arXiv 2112.01852) and a RISC-V
// RVV long-vector core (Vitruvius-style, arXiv 2111.01949).

#include <string>
#include <string_view>
#include <vector>

#include "machines/comparator.hpp"

namespace ncar::machines {

/// Value class of a description key (drives parsing and re-emission).
enum class KeyKind {
  Real,     ///< any positive real (clock periods, divisors, multipliers)
  Count,    ///< strictly positive integer (pipes, banks, CPUs)
  Size,     ///< positive integral byte count (caches, capacities)
  Rate,     ///< positive real rate or width (bytes/clock, bytes/s)
  Flag,     ///< boolean, written `true` / `false`
  Cycles,   ///< non-negative real cycle count (startup, overheads)
};

struct KeyInfo {
  const char* key;
  KeyKind kind;
};

/// The full description schema, in canonical (emission) order. Every key
/// maps 1:1 onto a sxs::MachineConfig field or a machines::Spec extra
/// (vector_unit, libm_call_overhead_cycles, vector_libm_multiplier).
const std::vector<KeyInfo>& description_schema();

/// format_round_trip (common/units.hpp), so parsing reproduces the exact
/// double, with "inf" for non-finite values. Used by to_table(),
/// validation messages and the design_sweep and design_space tables.
std::string format_number(double v);

/// True when `key` names a schema entry.
bool known_key(std::string_view key);

/// A declarative machine: a name plus the explicitly-set parameter table.
/// Entries are kept in canonical schema order so equality and re-emission
/// are independent of the order keys appeared in the source table.
struct MachineDescription {
  std::string name;
  std::vector<std::pair<std::string, double>> entries;

  bool has(std::string_view key) const;
  /// Value of `key`, or `fallback` when unset.
  double get_or(std::string_view key, double fallback) const;
  /// Set `key` (insert in canonical order or overwrite). Throws
  /// ncar::config_error on unknown keys.
  void set(std::string_view key, double value);

  /// Lower onto the generic timing model: defaults + entries → Spec.
  /// Throws ncar::config_error naming this machine on any invalid
  /// parameter (zero clock, VL=0, negative bank count, non-integral
  /// counts, inconsistent cache shape, ...).
  Spec lower() const;

  /// Canonical table form; parse_catalog(to_table()) round-trips exactly.
  std::string to_table() const;

  friend bool operator==(const MachineDescription&,
                         const MachineDescription&) = default;
};

/// An ordered set of named machine descriptions.
struct Catalog {
  std::vector<MachineDescription> machines;

  const MachineDescription* find(std::string_view name) const;
  /// Lookup that throws ncar::config_error listing known names on a miss.
  const MachineDescription& at(std::string_view name) const;
  std::vector<std::string> names() const;
  /// Concatenated to_table() of every machine.
  std::string to_table() const;
};

/// Strict parser for the catalog format:
///
///   # comment
///   machine "Name"
///     key = value
///
/// Rejected with a message naming the line: unknown keys, duplicate keys
/// within a machine, duplicate machine names, malformed numbers, keys
/// before the first machine header, and malformed headers.
Catalog parse_catalog(std::string_view text);

/// The embedded builtin catalog (parsed once, then cached).
const Catalog& builtin_catalog();

/// Names in the builtin catalog, in catalog order.
std::vector<std::string> builtin_names();

/// Lower the named builtin description to a Spec ready for Comparator
/// construction. Throws ncar::config_error on unknown names.
Spec spec_for(std::string_view name);

}  // namespace ncar::machines
