#pragma once
// sxsema rule engine: AST-level project invariants, tier 2 of the repo's
// static analysis (tier 1 is the token-based sxlint).
//
// Three rule families, run over the semantic model (model.hpp):
//
//   sema-unit-leak       public functions in src/sxs, src/machines,
//                        src/iosim and src/des must not return raw
//                        double/uint64 values whose dimension is inferable
//                        (a `.value()` unwrap flowing into the return), and
//                        cycles<->seconds re-wrapping is only legal inside
//                        MachineConfig::to_seconds / to_cycles.
//   sema-nondet          model code must not declare std:: random engines
//                        outside the des RNG layer and must not iterate
//                        unordered containers (iteration order is
//                        nondeterministic and poisons charged or
//                        serialized state). Wall-clock and libc RNG calls
//                        are sxlint's no-nondeterminism: a name check
//                        needs no AST.
//   sema-hot-alloc       charge_step / charge_cycles / charge_seconds /
//                        access_range / access_stream plus the numeric
//                        time-step roots (step / baroclinic_step /
//                        solve_barotropic / advect / combine) and
//                        everything they call one level deep (definitions
//                        visible in the same TU) must not allocate: no
//                        new-expressions, no container growth, no
//                        std::string construction.
//
// Charge categories need no rule: Cpu::charge_cycles/charge_seconds and
// Node::advance_seconds take their trace::Category without a default, so
// the compiler rejects an uncategorised charge.
//
// Findings are strictly ordered by (file, line, rule, message) and exact
// duplicates are dropped, so tier-1 and tier-2 reports diff cleanly.

#include <string>
#include <vector>

#include "model.hpp"

namespace ncar::sxsema {

struct Finding {
  std::string rule;
  std::string file;  ///< repository-relative POSIX path
  int line = 0;
  int col = 1;
  std::string symbol;  ///< enclosing function (qualified), for fingerprints
  std::string message;
};

/// `file:line:col: [rule] message` — matches the sxlint report shape.
std::string to_text(const Finding& f);

/// Line-insensitive identity used by the SARIF baseline: a finding keeps
/// its fingerprint when code above it moves it to another line.
std::string fingerprint(const Finding& f);

/// Run every rule family over `m`; sorted by (file, line, rule, message),
/// exact duplicates removed.
std::vector<Finding> run_rules(const Model& m);

/// Individual families (exposed for the fixture-driven unit tests).
std::vector<Finding> check_unit_leak(const Model& m);
std::vector<Finding> check_nondet(const Model& m);
std::vector<Finding> check_hot_alloc(const Model& m);

/// Sort by (file, line, rule, message) and drop exact duplicates.
void sort_and_dedupe(std::vector<Finding>& findings);

}  // namespace ncar::sxsema
