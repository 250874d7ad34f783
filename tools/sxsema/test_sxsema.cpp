// Unit tests for the sxsema rule engine, SARIF emitter and baseline
// ratchet. These run on every host — no libclang needed — by constructing
// Model values by hand that mirror the fixture sources in testdata/ (the
// end-to-end battery over the real fixtures runs as lint_sema_fixtures
// when libclang is available).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rules.hpp"
#include "sarif.hpp"

namespace {

using ncar::sxsema::CallSite;
using ncar::sxsema::Finding;
using ncar::sxsema::FuncOp;
using ncar::sxsema::Function;
using ncar::sxsema::Model;
using ncar::sxsema::OpKind;
using ncar::sxsema::SourceLoc;

Function make_fn(const std::string& file, int line, const std::string& name,
                 const std::string& qualified,
                 const std::string& result_type = "void") {
  Function f;
  f.name = name;
  f.qualified = qualified;
  f.result_type = result_type;
  f.loc = {file, line, 1};
  f.tu = file;
  f.is_public = true;
  f.is_definition = true;
  return f;
}

FuncOp op(OpKind kind, const std::string& file, int line,
          const std::string& detail = "", const std::string& aux = "") {
  return {kind, {file, line, 3}, detail, aux};
}

// --- sema-unit-leak --------------------------------------------------------
// Mirrors testdata/bad/src/sxs/unit_leak_return.cpp.

TEST(UnitLeakRule, FlagsPublicRawReturnUnwrap) {
  Model m;
  Function f = make_fn("src/sxs/unit_leak_return.cpp", 21, "elapsed_seconds",
                       "ncar::StepTimer::elapsed_seconds", "double");
  f.ops.push_back(op(OpKind::ReturnRaw, f.loc.file, 21, "Seconds"));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_unit_leak(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "sema-unit-leak");
  EXPECT_EQ(found[0].file, "src/sxs/unit_leak_return.cpp");
  EXPECT_EQ(found[0].symbol, "ncar::StepTimer::elapsed_seconds");
  EXPECT_EQ(found[0].message,
            "public function 'ncar::StepTimer::elapsed_seconds' returns raw "
            "double stripped from a ncar::Quantity<Seconds> via .value(); "
            "return the typed quantity instead");
}

TEST(UnitLeakRule, IgnoresPrivateRawReturn) {
  // Mirrors Stage::busy_raw in testdata/good/src/sxs/unit_ok.cpp.
  Model m;
  Function f = make_fn("src/sxs/unit_ok.cpp", 35, "busy_raw",
                       "ncar::Stage::busy_raw", "double");
  f.is_public = false;
  f.ops.push_back(op(OpKind::ReturnRaw, f.loc.file, 35, "Cycles"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_unit_leak(m).empty());
}

TEST(UnitLeakRule, IgnoresTypedReturn) {
  // A function that unwraps internally but returns a typed Quantity.
  Model m;
  Function f = make_fn("src/machines/scaled.cpp", 9, "scaled",
                       "ncar::scaled", "ncar::Quantity<ncar::dim::Cycles>");
  f.ops.push_back(op(OpKind::ReturnRaw, f.loc.file, 9, "Cycles"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_unit_leak(m).empty());
}

TEST(UnitLeakRule, FlagsCrossClockRewrap) {
  // Mirrors hasty_seconds in testdata/bad/src/machines/unit_leak_rewrap.cpp.
  Model m;
  Function f = make_fn("src/machines/unit_leak_rewrap.cpp", 23,
                       "hasty_seconds", "ncar::hasty_seconds",
                       "ncar::Quantity<ncar::dim::Seconds>");
  f.ops.push_back(
      op(OpKind::QuantityWrap, f.loc.file, 24, "Seconds", "Cycles"));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_unit_leak(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "sema-unit-leak");
  EXPECT_EQ(found[0].message,
            "re-wraps a Cycles value as Seconds outside "
            "MachineConfig::to_seconds/to_cycles; convert through the "
            "machine clock");
}

TEST(UnitLeakRule, ExemptsMachineConfigConversions) {
  // MachineConfig::to_seconds/to_cycles are the blessed clock crossings.
  Model m;
  Function f = make_fn("src/machines/machine_config.hpp", 101, "to_seconds",
                       "ncar::MachineConfig::to_seconds",
                       "ncar::Quantity<ncar::dim::Seconds>");
  f.ops.push_back(
      op(OpKind::QuantityWrap, f.loc.file, 102, "Seconds", "Cycles"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_unit_leak(m).empty());
}

TEST(UnitLeakRule, IgnoresNonClockRewraps) {
  // Bytes -> BytesPerSec derivations (e.g. bandwidth) are legitimate.
  Model m;
  Function f = make_fn("src/machines/machine_config.hpp", 80,
                       "xmu_bandwidth", "ncar::MachineConfig::xmu_bandwidth",
                       "ncar::Quantity<ncar::dim::BytesPerSec>");
  f.ops.push_back(
      op(OpKind::QuantityWrap, f.loc.file, 81, "BytesPerSec", "Bytes"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_unit_leak(m).empty());
}

TEST(UnitLeakRule, IgnoresFilesOutsideUnitScope) {
  Model m;
  Function f = make_fn("src/trace/collector.cpp", 5, "span_seconds",
                       "trace::span_seconds", "double");
  f.ops.push_back(op(OpKind::ReturnRaw, f.loc.file, 5, "Seconds"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_unit_leak(m).empty());
}

// --- sema-nondet -----------------------------------------------------------

TEST(NondetRule, FlagsRngEngineOutsideDesLayer) {
  // Mirrors testdata/bad/src/machines/nondet_rng.cpp.
  Model m;
  Function f = make_fn("src/machines/nondet_rng.cpp", 8, "noisy_latency",
                       "machines::noisy_latency", "unsigned int");
  f.ops.push_back(op(OpKind::RngEngine, f.loc.file, 9, "std::mt19937_64"));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_nondet(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].message,
            "std random engine std::mt19937_64 outside des::RngStream; "
            "draw from a named des RNG stream instead");
}

TEST(NondetRule, ExemptsDesRngLayer) {
  // Mirrors testdata/good/src/des/rng_stream.cpp.
  Model m;
  Function f = make_fn("src/des/rng_stream.cpp", 10, "RngStream",
                       "des::RngStream::RngStream");
  f.ops.push_back(op(OpKind::RngEngine, f.loc.file, 16, "std::mt19937_64"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_nondet(m).empty());
}

TEST(NondetRule, FlagsUnorderedIteration) {
  // Mirrors testdata/bad/src/sxs/nondet_unordered.cpp.
  Model m;
  Function f = make_fn("src/sxs/nondet_unordered.cpp", 9, "total",
                       "sxs::BankBook::total", "double");
  f.ops.push_back(
      op(OpKind::UnorderedIter, f.loc.file, 11, "std::unordered_map"));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_nondet(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].message,
            "iteration over std::unordered_map has nondeterministic order; "
            "charged or serialized state must not depend on it");
}

TEST(NondetRule, IgnoresFilesOutsideSrc) {
  Model m;
  Function f = make_fn("tools/sweep/main.cpp", 30, "stamp", "stamp", "long");
  f.ops.push_back(
      op(OpKind::UnorderedIter, f.loc.file, 31, "std::unordered_map"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_nondet(m).empty());
}

// --- sema-hot-alloc --------------------------------------------------------

TEST(HotAllocRule, FlagsDirectAllocationInHotRoot) {
  // Mirrors testdata/bad/src/sxs/hot_alloc_direct.cpp.
  Model m;
  Function f = make_fn("src/sxs/hot_alloc_direct.cpp", 8, "access_range",
                       "sxs::CacheSim::access_range");
  f.ops.push_back(op(OpKind::ContainerGrowth, f.loc.file, 9, "push_back",
                     "std::vector"));
  f.ops.push_back(op(OpKind::NewExpr, f.loc.file, 10));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_hot_alloc(m);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].message,
            "hot path 'sxs::CacheSim::access_range' performs container "
            "growth (push_back on std::vector); charge paths must be "
            "allocation-free");
  EXPECT_EQ(found[1].message,
            "hot path 'sxs::CacheSim::access_range' performs a "
            "new-expression; charge paths must be allocation-free");
}

TEST(HotAllocRule, FlagsAllocationOneLevelDown) {
  // Mirrors testdata/bad/src/iosim/hot_alloc_via.cpp.
  Model m;
  Function root = make_fn("src/iosim/hot_alloc_via.cpp", 9, "charge_step",
                          "iosim::DiskModel::charge_step");
  CallSite call;
  call.callee = "note_event";
  call.callee_qualified = "iosim::DiskModel::note_event";
  call.loc = {root.loc.file, 9, 30};
  root.calls.push_back(call);

  Function callee = make_fn("src/iosim/hot_alloc_via.cpp", 12, "note_event",
                            "iosim::DiskModel::note_event");
  callee.is_public = false;
  callee.ops.push_back(op(OpKind::ContainerGrowth, callee.loc.file, 12,
                          "push_back", "std::vector"));
  m.functions.push_back(root);
  m.functions.push_back(callee);

  const auto found = ncar::sxsema::check_hot_alloc(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].message,
            "hot path 'iosim::DiskModel::charge_step' reaches container "
            "growth (push_back on std::vector) via "
            "'iosim::DiskModel::note_event'; charge paths must be "
            "allocation-free");
}

TEST(HotAllocRule, IgnoresCalleesDefinedInOtherTus) {
  // The Collector::span case: charge_cycles calls a function whose
  // definition lives in another TU — it is not folded into this root.
  Model m;
  Function root = make_fn("src/sxs/cpu.cpp", 40, "charge_cycles",
                          "ncar::sxs::Cpu::charge_cycles");
  CallSite call;
  call.callee = "span";
  call.callee_qualified = "trace::Collector::span";
  call.loc = {root.loc.file, 41, 5};
  root.calls.push_back(call);

  Function callee = make_fn("src/trace/collector.cpp", 20, "span",
                            "trace::Collector::span");
  callee.ops.push_back(op(OpKind::ContainerGrowth, callee.loc.file, 22,
                          "push_back", "std::vector"));
  m.functions.push_back(root);
  m.functions.push_back(callee);
  EXPECT_TRUE(ncar::sxsema::check_hot_alloc(m).empty());
}

TEST(HotAllocRule, IgnoresColdFunctions) {
  // Mirrors configure() in testdata/good/src/sxs/hot_ok.cpp.
  Model m;
  Function f = make_fn("src/sxs/hot_ok.cpp", 9, "configure",
                       "sxs::CacheSim::configure");
  f.ops.push_back(
      op(OpKind::ContainerGrowth, f.loc.file, 10, "resize", "std::vector"));
  m.functions.push_back(f);
  EXPECT_TRUE(ncar::sxsema::check_hot_alloc(m).empty());
}

TEST(HotAllocRule, FlagsNumericStepRoots) {
  // Mirrors testdata/bad/src/ocean/hot_alloc_step.cpp: `step` is a hot
  // root since the zero-allocation hot-path work, so a per-step scratch
  // vector is a finding.
  Model m;
  Function f = make_fn("src/ocean/hot_alloc_step.cpp", 10, "step",
                       "ocean::BasinModel::step");
  f.ops.push_back(op(OpKind::NewExpr, f.loc.file, 11));
  m.functions.push_back(f);

  const auto found = ncar::sxsema::check_hot_alloc(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "sema-hot-alloc");
  EXPECT_EQ(found[0].message,
            "hot path 'ocean::BasinModel::step' performs a "
            "new-expression; charge paths must be allocation-free");
}

TEST(HotAllocRule, FlagsAllocationReachedFromAdvect) {
  // `advect` reaching std::string construction one level down in the
  // same TU is folded into the root, like charge_step call graphs.
  Model m;
  Function root = make_fn("src/ccm2/hot_alloc_advect.cpp", 14, "advect",
                          "ccm2::Slt::advect");
  CallSite call;
  call.callee = "label_point";
  call.callee_qualified = "ccm2::Slt::label_point";
  call.loc = {root.loc.file, 15, 7};
  root.calls.push_back(call);

  Function callee = make_fn("src/ccm2/hot_alloc_advect.cpp", 20,
                            "label_point", "ccm2::Slt::label_point");
  callee.is_public = false;
  callee.ops.push_back(op(OpKind::StringMake, callee.loc.file, 21));
  m.functions.push_back(root);
  m.functions.push_back(callee);

  const auto found = ncar::sxsema::check_hot_alloc(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].message,
            "hot path 'ccm2::Slt::advect' reaches std::string construction "
            "via 'ccm2::Slt::label_point'; charge paths must be "
            "allocation-free");
}

TEST(HotAllocRule, WorkspaceReusingStepIsClean) {
  // Mirrors testdata/good/src/ocean/step_ok.cpp: a step() that only
  // writes through preallocated workspace storage is not flagged even
  // though the cold reset() path allocates.
  Model m;
  Function cold = make_fn("src/ocean/step_ok.cpp", 9, "reset",
                          "ocean::BasinModel::reset");
  cold.ops.push_back(
      op(OpKind::ContainerGrowth, cold.loc.file, 10, "assign", "std::vector"));
  Function hot = make_fn("src/ocean/step_ok.cpp", 13, "step",
                         "ocean::BasinModel::step");
  m.functions.push_back(cold);
  m.functions.push_back(hot);
  EXPECT_TRUE(ncar::sxsema::check_hot_alloc(m).empty());
}

// --- ordering, dedupe, fingerprints ----------------------------------------

Finding finding(const std::string& rule, const std::string& file, int line,
                int col, const std::string& symbol,
                const std::string& message) {
  Finding f;
  f.rule = rule;
  f.file = file;
  f.line = line;
  f.col = col;
  f.symbol = symbol;
  f.message = message;
  return f;
}

TEST(Ordering, SortsByFileLineRule) {
  std::vector<Finding> v = {
      finding("sema-nondet", "src/b.cpp", 3, 1, "f", "m1"),
      finding("sema-unit-leak", "src/a.cpp", 9, 1, "g", "m2"),
      finding("sema-hot-alloc", "src/a.cpp", 9, 1, "g", "m3"),
      finding("sema-nondet", "src/a.cpp", 2, 1, "h", "m4"),
  };
  ncar::sxsema::sort_and_dedupe(v);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0].file, "src/a.cpp");
  EXPECT_EQ(v[0].line, 2);
  EXPECT_EQ(v[1].rule, "sema-hot-alloc");  // same file+line: rule order
  EXPECT_EQ(v[2].rule, "sema-unit-leak");
  EXPECT_EQ(v[3].file, "src/b.cpp");
}

TEST(Ordering, DedupesRepeatFindingsOnSameToken) {
  // The same header parsed in several TUs produces identical findings.
  std::vector<Finding> v = {
      finding("sema-nondet", "src/a.hpp", 7, 3, "f", "m"),
      finding("sema-nondet", "src/a.hpp", 7, 3, "f", "m"),
      finding("sema-nondet", "src/a.hpp", 7, 3, "f", "m"),
  };
  ncar::sxsema::sort_and_dedupe(v);
  EXPECT_EQ(v.size(), 1u);
}

TEST(Fingerprint, LineInsensitive) {
  const Finding a =
      finding("sema-nondet", "src/a.cpp", 10, 3, "ncar::f", "msg");
  const Finding b =
      finding("sema-nondet", "src/a.cpp", 99, 7, "ncar::f", "msg");
  EXPECT_EQ(ncar::sxsema::fingerprint(a), ncar::sxsema::fingerprint(b));
  const Finding c =
      finding("sema-nondet", "src/a.cpp", 10, 3, "ncar::f", "other");
  EXPECT_NE(ncar::sxsema::fingerprint(a), ncar::sxsema::fingerprint(c));
}

TEST(Text, FormatsFileLineColRuleMessage) {
  const Finding f =
      finding("sema-unit-leak", "src/sxs/cpu.cpp", 12, 5, "s", "leaky");
  EXPECT_EQ(ncar::sxsema::to_text(f),
            "src/sxs/cpu.cpp:12:5: [sema-unit-leak] leaky");
}

// --- SARIF + baseline ratchet ----------------------------------------------

TEST(Sarif, DeterministicAndWellFormed) {
  std::vector<Finding> v = {
      finding("sema-nondet", "src/a.cpp", 3, 1, "f", "call to time ..."),
      finding("sema-unit-leak", "src/b.cpp", 9, 2, "g", "re-\"wraps\""),
  };
  const std::string once = ncar::sxsema::write_sarif(v);
  const std::string twice = ncar::sxsema::write_sarif(v);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(once.find("json.schemastore.org/sarif-2.1.0.json"),
            std::string::npos);
  EXPECT_NE(once.find("\"name\": \"sxsema\""), std::string::npos);
  EXPECT_NE(once.find("sxsema/v1"), std::string::npos);
}

TEST(Sarif, BaselineRoundTrip) {
  std::vector<Finding> v = {
      finding("sema-hot-alloc", "src/a.cpp", 3, 1, "f", "performs x"),
      finding("sema-nondet", "src/b.cpp", 9, 2, "g", "iterates y"),
  };
  const std::string doc = ncar::sxsema::write_sarif(v);

  std::vector<std::string> prints;
  ASSERT_TRUE(ncar::sxsema::read_baseline_fingerprints(doc, prints));
  ASSERT_EQ(prints.size(), 2u);
  EXPECT_EQ(prints[0], ncar::sxsema::fingerprint(v[0]));
  EXPECT_EQ(prints[1], ncar::sxsema::fingerprint(v[1]));

  // Suppressing against the freshly written baseline leaves nothing, even
  // after the findings move to other lines (line-insensitive ratchet).
  v[0].line = 77;
  v[1].line = 78;
  EXPECT_TRUE(ncar::sxsema::suppress_baselined(v, prints).empty());
}

TEST(Sarif, PartialSuppressionKeepsFreshFindings) {
  std::vector<Finding> v = {
      finding("sema-hot-alloc", "src/a.cpp", 3, 1, "f", "performs x"),
      finding("sema-nondet", "src/b.cpp", 9, 2, "g", "iterates y"),
  };
  const std::vector<std::string> baseline = {ncar::sxsema::fingerprint(v[0])};
  const auto fresh = ncar::sxsema::suppress_baselined(v, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "sema-nondet");
}

TEST(Sarif, EmptyResultsAreValid) {
  const std::string doc = ncar::sxsema::write_sarif({});
  std::vector<std::string> prints;
  ASSERT_TRUE(ncar::sxsema::read_baseline_fingerprints(doc, prints));
  EXPECT_TRUE(prints.empty());
}

TEST(Sarif, MalformedBaselineIsRejected) {
  std::vector<std::string> prints;
  EXPECT_FALSE(ncar::sxsema::read_baseline_fingerprints("not json", prints));
  EXPECT_FALSE(ncar::sxsema::read_baseline_fingerprints("{}", prints));
  EXPECT_FALSE(ncar::sxsema::read_baseline_fingerprints(
      "{\"runs\": [{\"results\": [{\"ruleId\": \"x\"}]}]}", prints));
}

TEST(Sarif, CommittedBaselineIsCleanAndParses) {
  // The repo invariant: tools/sxsema/baseline.sarif is the empty ratchet.
  std::ifstream in(std::string(SXSEMA_DIR) + "/baseline.sarif");
  ASSERT_TRUE(in.good()) << "missing tools/sxsema/baseline.sarif";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<std::string> prints;
  ASSERT_TRUE(ncar::sxsema::read_baseline_fingerprints(buf.str(), prints));
  EXPECT_TRUE(prints.empty())
      << "baseline.sarif carries grandfathered findings; fix or justify";
  // Byte-stable emitter: the committed file is exactly write_sarif({}).
  EXPECT_EQ(buf.str(), ncar::sxsema::write_sarif({}));
}

TEST(RunRules, ConcatenatesAllFamiliesSortedAndDeduped) {
  Model m;
  Function leak = make_fn("src/sxs/b.cpp", 12, "elapsed_seconds",
                          "sxs::T::elapsed_seconds", "double");
  leak.ops.push_back(op(OpKind::ReturnRaw, leak.loc.file, 12, "Seconds"));
  Function nondet = make_fn("src/sxs/a.cpp", 4, "sum", "sxs::sum", "long");
  nondet.ops.push_back(
      op(OpKind::UnorderedIter, nondet.loc.file, 5, "std::unordered_map"));
  m.functions.push_back(leak);
  m.functions.push_back(nondet);

  const auto all = ncar::sxsema::run_rules(m);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].file, "src/sxs/a.cpp");  // file order, not rule order
  EXPECT_EQ(all[0].rule, "sema-nondet");
  EXPECT_EQ(all[1].file, "src/sxs/b.cpp");
  EXPECT_EQ(all[1].rule, "sema-unit-leak");
}

}  // namespace
