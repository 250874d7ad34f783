#include "rules.hpp"

#include <algorithm>
#include <array>
#include <tuple>

namespace ncar::sxsema {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The dimensioned subsystems swept by the unit-safety family.
bool in_unit_scope(const std::string& file) {
  return starts_with(file, "src/sxs/") || starts_with(file, "src/machines/") ||
         starts_with(file, "src/iosim/") || starts_with(file, "src/des/");
}

bool in_model_scope(const std::string& file) {
  return starts_with(file, "src/");
}

bool is_raw_numeric(const std::string& type) {
  // Canonical spellings: std::uint64_t is `unsigned long` on LP64 hosts.
  return type == "double" || type == "float" || type == "unsigned long" ||
         type == "unsigned long long" || type == "std::uint64_t" ||
         type == "uint64_t";
}

bool is_clock_conversion(const Function& f) {
  return (f.name == "to_seconds" || f.name == "to_cycles") &&
         f.qualified.find("MachineConfig::") != std::string::npos;
}

bool cross_clock_dims(const std::string& a, const std::string& b) {
  return (a == "Cycles" && b == "Seconds") ||
         (a == "Seconds" && b == "Cycles");
}

Finding make(const char* rule, const SourceLoc& loc, const Function& f,
             std::string message) {
  Finding out;
  out.rule = rule;
  out.file = loc.file;
  out.line = loc.line;
  out.col = loc.col;
  out.symbol = f.qualified;
  out.message = std::move(message);
  return out;
}

const char* alloc_what(const FuncOp& op) {
  switch (op.kind) {
    case OpKind::NewExpr: return "a new-expression";
    case OpKind::StringMake: return "std::string construction";
    default: return "container growth";
  }
}

std::string alloc_detail(const FuncOp& op) {
  if (op.kind == OpKind::ContainerGrowth) {
    return "container growth (" + op.detail + " on " + op.aux + ")";
  }
  return alloc_what(op);
}

bool is_alloc_op(const FuncOp& op) {
  return op.kind == OpKind::NewExpr || op.kind == OpKind::ContainerGrowth ||
         op.kind == OpKind::StringMake;
}

constexpr std::array<const char*, 10> kHotRoots = {
    "charge_step", "charge_cycles",      "charge_seconds",
    "access_range", "access_stream",
    // Numeric time-step roots: the per-step driver loops of the model
    // kernels. These run thousands of times per sweep and since the
    // workspace/arena work must stay allocation-free end to end.
    "step", "baroclinic_step", "solve_barotropic", "advect", "combine"};

bool is_hot_root(const Function& f) {
  return std::find(kHotRoots.begin(), kHotRoots.end(), f.name) !=
         kHotRoots.end();
}

}  // namespace

std::string to_text(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ":" + std::to_string(f.col) +
         ": [" + f.rule + "] " + f.message;
}

std::string fingerprint(const Finding& f) {
  // No line/column: moving a finding within its file must not churn the
  // committed baseline. The symbol disambiguates same-message findings in
  // different functions of one file.
  return f.rule + "|" + f.file + "|" + f.symbol + "|" + f.message;
}

void sort_and_dedupe(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message, a.col) <
                     std::tie(b.file, b.line, b.rule, b.message, b.col);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
}

std::vector<Finding> check_unit_leak(const Model& m) {
  std::vector<Finding> out;
  for (const Function& f : m.functions) {
    if (!in_unit_scope(f.loc.file)) continue;
    for (const FuncOp& op : f.ops) {
      if (op.kind == OpKind::ReturnRaw && f.is_public &&
          is_raw_numeric(f.result_type)) {
        out.push_back(make(
            "sema-unit-leak", op.loc, f,
            "public function '" + f.qualified + "' returns raw " +
                f.result_type + " stripped from a ncar::Quantity<" +
                op.detail +
                "> via .value(); return the typed quantity instead"));
      }
      if (op.kind == OpKind::QuantityWrap && !op.aux.empty() &&
          cross_clock_dims(op.detail, op.aux) && !is_clock_conversion(f)) {
        out.push_back(make(
            "sema-unit-leak", op.loc, f,
            "re-wraps a " + op.aux + " value as " + op.detail +
                " outside MachineConfig::to_seconds/to_cycles; convert "
                "through the machine clock"));
      }
    }
  }
  return out;
}

std::vector<Finding> check_nondet(const Model& m) {
  std::vector<Finding> out;
  for (const Function& f : m.functions) {
    if (!in_model_scope(f.loc.file)) continue;
    for (const FuncOp& op : f.ops) {
      switch (op.kind) {
        case OpKind::RngEngine:
          // The des RNG layer and the repo's own xoshiro generator are
          // the blessed homes for raw engine state.
          if (starts_with(op.loc.file, "src/des/rng") ||
              starts_with(op.loc.file, "src/common/rng")) {
            break;
          }
          out.push_back(make(
              "sema-nondet", op.loc, f,
              "std random engine " + op.detail +
                  " outside des::RngStream; draw from a named des RNG "
                  "stream instead"));
          break;
        case OpKind::UnorderedIter:
          out.push_back(make(
              "sema-nondet", op.loc, f,
              "iteration over " + op.detail +
                  " has nondeterministic order; charged or serialized "
                  "state must not depend on it"));
          break;
        default: break;
      }
    }
  }
  return out;
}

std::vector<Finding> check_hot_alloc(const Model& m) {
  std::vector<Finding> out;
  for (const Function& root : m.functions) {
    if (!root.is_definition || !is_hot_root(root) ||
        !in_model_scope(root.loc.file)) {
      continue;
    }
    for (const FuncOp& op : root.ops) {
      if (!is_alloc_op(op)) continue;
      out.push_back(make("sema-hot-alloc", op.loc, root,
                         "hot path '" + root.qualified + "' performs " +
                             alloc_detail(op) +
                             "; charge paths must be allocation-free"));
    }
    // One-level inline walk: follow calls whose definition is visible in
    // the root's own TU (header-inline or same-file). Out-of-line callees
    // in other TUs are separate roots of their own when hot.
    for (const CallSite& call : root.calls) {
      for (const Function& callee : m.functions) {
        if (!callee.is_definition || callee.tu != root.tu) continue;
        if (callee.qualified != call.callee_qualified) continue;
        if (!in_model_scope(callee.loc.file)) continue;
        for (const FuncOp& op : callee.ops) {
          if (!is_alloc_op(op)) continue;
          Finding f = make("sema-hot-alloc", op.loc, callee,
                           "hot path '" + root.qualified + "' reaches " +
                               alloc_detail(op) + " via '" +
                               callee.qualified +
                               "'; charge paths must be allocation-free");
          out.push_back(std::move(f));
        }
      }
    }
  }
  return out;
}

std::vector<Finding> run_rules(const Model& m) {
  std::vector<Finding> all;
  for (auto* check : {check_unit_leak, check_nondet, check_hot_alloc}) {
    auto found = check(m);
    all.insert(all.end(), found.begin(), found.end());
  }
  sort_and_dedupe(all);
  return all;
}

}  // namespace ncar::sxsema
