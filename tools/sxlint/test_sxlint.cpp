#include "sxlint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

// SXLINT_TESTDATA_DIR is provided by CMake and points at
// tools/sxlint/testdata in the source tree.

namespace {

using ncar::sxlint::Finding;

std::filesystem::path testdata(const char* which) {
  return std::filesystem::path(SXLINT_TESTDATA_DIR) / which;
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool mentions_file(const std::vector<Finding>& findings,
                   const std::string& filename) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.file.filename() == filename;
  });
}

TEST(SxlintStrip, RemovesCommentsAndStringsKeepsLines) {
  const std::string src =
      "int a; // time(0)\n"
      "/* std::rand()\n"
      "   more */ int b;\n"
      "const char* s = \"gettimeofday\";\n";
  const std::string stripped = ncar::sxlint::strip_comments_and_strings(src);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("gettimeofday"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(SxlintStrip, HandlesEscapedQuotes) {
  const std::string src = "const char* s = \"a\\\"rand(\\\"b\"; int c;\n";
  const std::string stripped = ncar::sxlint::strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int c;"), std::string::npos);
}

TEST(SxlintBad, BenchWithoutReporterIsFlagged) {
  const auto findings = ncar::sxlint::check_bench_reporter(testdata("bad"));
  EXPECT_EQ(count_rule(findings, "bench-reporter"), 1);
  EXPECT_TRUE(mentions_file(findings, "rogue_bench.cpp"));
}

TEST(SxlintBad, NondeterministicCallsAreFlagged) {
  const auto findings = ncar::sxlint::check_nondeterminism(testdata("bad"));
  // model_nondet.cpp: srand, getrusage(), time(), rand(), clock(),
  // drand48(), lrand48(), random() and the steady, high_resolution and
  // system clocks (11); clock_gettime and time() in the streaming-sink
  // fixture trace/stream/sink_wallclock.cpp (2); steady_clock in the
  // header model_nondet.hpp (1); std::mt19937_64 in
  // machines/nondet_rng.cpp (1); unordered_map at the #include and the
  // member of sxs/nondet_unordered.cpp (2).
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 17);
  EXPECT_TRUE(mentions_file(findings, "model_nondet.cpp"));
  EXPECT_TRUE(mentions_file(findings, "model_nondet.hpp"));
  EXPECT_TRUE(mentions_file(findings, "sink_wallclock.cpp"));
  EXPECT_TRUE(mentions_file(findings, "nondet_rng.cpp"));
  EXPECT_TRUE(mentions_file(findings, "nondet_unordered.cpp"));
}

TEST(SxlintGood, RngLayerMayHoldStdEngines) {
  // des/rng_stream.cpp sits in src/des/rng*, where std engines are allowed,
  // and iterates an ordered std::map.
  const auto findings = ncar::sxlint::check_nondeterminism(testdata("good"));
  EXPECT_FALSE(mentions_file(findings, "rng_stream.cpp"));
}

TEST(SxlintBad, UnitLeaksAreFlagged) {
  auto findings = ncar::sxlint::check_unit_leak(testdata("bad"));
  ncar::sxlint::sort_and_dedupe(findings);
  // machines/unit_leak_rewrap.cpp re-wraps Cycles as Seconds outside
  // MachineConfig (its MachineConfig::to_seconds twin is exempt);
  // sxs/unit_leak_return.cpp returns a raw double from a public accessor
  // (its typed sibling is clean).
  ASSERT_EQ(count_rule(findings, "unit-leak"), 2);
  EXPECT_EQ(findings[0].file.filename(), "unit_leak_rewrap.cpp");
  EXPECT_EQ(findings[0].line, 22);
  EXPECT_EQ(findings[1].file.filename(), "unit_leak_return.cpp");
  EXPECT_EQ(findings[1].line, 21);
}

TEST(SxlintGood, TypedReturnsAndClockConversionsPass) {
  // sxs/unit_ok.cpp: MachineConfig::to_seconds/to_cycles re-wrap through
  // the clock, a typed public accessor, and a private raw one.
  const auto findings = ncar::sxlint::check_unit_leak(testdata("good"));
  EXPECT_EQ(count_rule(findings, "unit-leak"), 0);
}

TEST(SxlintBad, SemanticFixturesAreFlaggedByExactlyTheirRule) {
  // The fixtures of the former libclang tier: each is caught by the
  // sxlint rule that now enforces its invariant, and by nothing else.
  const std::set<std::pair<std::string, std::string>> expected = {
      {"no-nondeterminism", "src/machines/nondet_rng.cpp"},
      {"no-nondeterminism", "src/sxs/nondet_unordered.cpp"},
      {"unit-leak", "src/machines/unit_leak_rewrap.cpp"},
      {"unit-leak", "src/sxs/unit_leak_return.cpp"},
  };
  std::set<std::pair<std::string, std::string>> actual;
  for (const auto& f : ncar::sxlint::lint_tree(testdata("bad"))) {
    const std::string rel =
        std::filesystem::relative(f.file, testdata("bad")).generic_string();
    for (const auto& [rule, file] : expected) {
      if (file == rel) actual.insert({f.rule, rel});
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(SxlintGood, StreamSinkOnModelTimePasses) {
  // trace/stream/sink_clean.cpp keeps every timestamp in model time;
  // "time"/"rand" appear only in comments, strings, and longer tokens.
  const auto findings = ncar::sxlint::check_nondeterminism(testdata("good"));
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 0);
}

TEST(SxlintBad, PrintingModelCodeIsFlagged) {
  const auto findings = ncar::sxlint::check_stdout(testdata("bad"));
  EXPECT_EQ(count_rule(findings, "no-stdout"), 1);
  EXPECT_TRUE(mentions_file(findings, "model_prints.cpp"));
}

TEST(SxlintBad, IncludeGuardHeaderIsFlagged) {
  const auto findings = ncar::sxlint::check_pragma_once(testdata("bad"));
  EXPECT_EQ(count_rule(findings, "pragma-once"), 1);
  EXPECT_TRUE(mentions_file(findings, "legacy_guard.hpp"));
}

TEST(SxlintBad, NakedUnitParametersAreFlagged) {
  const auto findings = ncar::sxlint::check_typed_units(testdata("bad"));
  // `double bytes`, `double timeout_seconds` and `double flops` in
  // sxs/naked_units.hpp plus the public `double max_seconds` in
  // machines/public_naked_units.hpp — its private `double seconds` is
  // deliberately NOT counted — plus, under the widened iosim scope,
  // `double bytes` and `double stall_seconds` in iosim/io_naked_units.hpp.
  EXPECT_EQ(count_rule(findings, "typed-units"), 6);
  EXPECT_TRUE(mentions_file(findings, "naked_units.hpp"));
  EXPECT_TRUE(mentions_file(findings, "public_naked_units.hpp"));
  EXPECT_TRUE(mentions_file(findings, "io_naked_units.hpp"));
}

TEST(SxlintGood, TypedIosimHeaderPassesWidenedScope) {
  // iosim/io_typed.hpp keeps raw doubles private or at depth 0; the
  // widened typed-units sweep must leave it alone.
  const auto findings = ncar::sxlint::check_typed_units(testdata("good"));
  EXPECT_EQ(count_rule(findings, "typed-units"), 0);
}

TEST(SxlintGood, PrivateSectionNakedUnitsAreAllowed) {
  // machines/typed_catalog.hpp keeps raw doubles in its private section,
  // has a depth-0 `double seconds()` method name, struct fields, and an
  // `enum class` — none of which may trip the access tracker.
  const auto findings = ncar::sxlint::check_typed_units(testdata("good"));
  EXPECT_EQ(count_rule(findings, "typed-units"), 0);
}

TEST(SxlintBad, WholeTreeAggregatesEveryRule) {
  const auto findings = ncar::sxlint::lint_tree(testdata("bad"));
  EXPECT_GE(count_rule(findings, "bench-reporter"), 1);
  EXPECT_GE(count_rule(findings, "no-nondeterminism"), 1);
  EXPECT_GE(count_rule(findings, "no-stdout"), 1);
  EXPECT_GE(count_rule(findings, "pragma-once"), 1);
  EXPECT_GE(count_rule(findings, "typed-units"), 1);
  EXPECT_GE(count_rule(findings, "unit-leak"), 1);
}

TEST(SxlintOrdering, FindingsAreSortedByFileLineRule) {
  const auto findings = ncar::sxlint::lint_tree(testdata("bad"));
  ASSERT_GE(findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        return a.rule < b.rule;
      }));
}

TEST(SxlintOrdering, SortAndDedupeDropsRepeatsOnSameToken) {
  Finding f;
  f.rule = "typed-units";
  f.file = "src/sxs/a.hpp";
  f.line = 7;
  f.message = "m";
  Finding later = f;
  later.line = 3;
  std::vector<Finding> v = {f, f, later, f};
  ncar::sxlint::sort_and_dedupe(v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].line, 3);  // sorted: earlier line first
  EXPECT_EQ(v[1].line, 7);  // three identical findings collapse to one
}

TEST(SxlintGood, CleanTreeHasNoFindings) {
  const auto findings = ncar::sxlint::lint_tree(testdata("good"));
  for (const auto& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

TEST(SxlintGood, MethodNamedSecondsAtDepthZeroIsAllowed) {
  // good/src/sxs/typed.hpp declares `double seconds() const;` — a method
  // *name*, not a parameter; the paren-depth heuristic must not fire.
  const auto findings = ncar::sxlint::check_typed_units(testdata("good"));
  EXPECT_EQ(count_rule(findings, "typed-units"), 0);
}

TEST(SxlintGood, MissingSubtreesAreSkipped) {
  // A tree with no bench/ or tests/ lints clean rather than erroring.
  const auto findings =
      ncar::sxlint::lint_tree(testdata("good") / "src" / "sxs");
  EXPECT_TRUE(findings.empty());
}

}  // namespace
