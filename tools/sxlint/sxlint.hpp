#pragma once
// sxlint: project-specific static analysis for the SX-4 model codebase.
//
// A deliberately small, dependency-free analyzer (no libclang): it strips
// comments and string literals, then applies exact-token and paren-depth
// heuristics. That is enough to enforce the handful of project invariants
// that generic tools cannot know about:
//
//   bench-reporter      every bench/ main must route its numbers through the
//                       BenchReporter harness (so the regression gate sees
//                       them); a stray printf-style bench silently escapes
//                       baseline checking.
//   no-nondeterminism   model code (src/, sources and headers) must not
//                       read wall clocks, CPU clocks or global RNG state:
//                       calls to time, clock, rand, drand48, lrand48,
//                       random, getrusage, and any use of srand,
//                       gettimeofday, clock_gettime, std::random_device or
//                       the std::chrono steady/system/high_resolution
//                       clocks. Simulated time must come from the model.
//                       std random engines (mt19937*, minstd_rand*,
//                       ranlux*, knuth_b, the *_engine templates) live
//                       only in src/des/rng* and src/common/rng*, and no
//                       unordered_* container appears anywhere in src/:
//                       its iteration order is unspecified.
//   no-stdout           model code must not print; presentation lives in
//                       bench/ and examples/.
//   pragma-once         every header uses #pragma once.
//   typed-units         src/sxs, src/machines and src/iosim headers must not
//                       take naked `double seconds` / `double bytes`
//                       parameters in publicly visible declarations — use
//                       ncar::Seconds / ncar::Bytes (common/quantity.hpp).
//                       A brace-stack access tracker (class opens private,
//                       struct opens public, labels flip) lets private
//                       helpers keep raw doubles.
//   unit-leak           src/sxs, src/machines, src/iosim and src/des code
//                       must not build Seconds/Cycles from a .value()
//                       unwrap outside MachineConfig::to_seconds /
//                       to_cycles, and a public function returning a raw
//                       double/float/uint64 must not return a .value()
//                       unwrap. Out-of-line definitions in a .cpp are not
//                       checked for the second pattern.
//
// Each finding carries the rule name, file, line, and message. main() prints
// them `file:line: [rule] message` and exits non-zero on any finding.
// lint_tree output is strictly ordered by (file, line, rule) with repeat
// findings on the same token deduplicated, so runs diff cleanly.

#include <filesystem>
#include <string>
#include <vector>

namespace ncar::sxlint {

struct Finding {
  std::string rule;
  std::filesystem::path file;
  int line = 0;
  std::string message;
};

/// Replace comments and string/char literal contents with spaces, keeping
/// newlines so line numbers survive. Exposed for tests.
std::string strip_comments_and_strings(const std::string& source);

/// Sort findings by (file, line, rule, message) and drop exact repeats on
/// the same token. Exposed for tests; lint_tree applies it to its result.
void sort_and_dedupe(std::vector<Finding>& findings);

/// Run every rule over the repository rooted at `root` (the directory that
/// contains src/, bench/, tests/). Paths that do not exist are skipped, so
/// the linter also works on partial fixture trees. The result is ordered
/// and deduplicated (see sort_and_dedupe).
std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// Individual rules, each scanning the files it cares about under `root`.
std::vector<Finding> check_bench_reporter(const std::filesystem::path& root);
std::vector<Finding> check_nondeterminism(const std::filesystem::path& root);
std::vector<Finding> check_stdout(const std::filesystem::path& root);
std::vector<Finding> check_pragma_once(const std::filesystem::path& root);
std::vector<Finding> check_typed_units(const std::filesystem::path& root);
std::vector<Finding> check_unit_leak(const std::filesystem::path& root);

}  // namespace ncar::sxlint
