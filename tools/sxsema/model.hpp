#pragma once
// sxsema semantic model: the frontend-independent view of the repository
// that the rules run over.
//
// The libclang frontend (frontend_clang.cpp, built only when clang-c is
// available) lowers every translation unit of compile_commands.json into
// this small record set; the rule engine (rules.cpp) never sees an AST.
// The split is deliberate:
//
//   * the rules, the SARIF emitter and the baseline ratchet are plain C++
//     with no external dependency, so they build and unit-test everywhere
//     (test_sxsema constructs Model values mirroring the fixture sources
//     in testdata/);
//   * the frontend is the only file that needs libclang, so a build host
//     without it still compiles and tests the whole tier minus the parser.
//
// A Function is one function-shaped declaration (free function, method,
// constructor, lambda bodies fold into their lexical owner) with the three
// things the rules consume: its return type and access, the calls it
// makes, and a flat list of "interesting operations" found in its body.

#include <string>
#include <vector>

namespace ncar::sxsema {

struct SourceLoc {
  std::string file;  ///< repository-relative POSIX path
  int line = 0;
  int col = 1;
};

/// Body operations the rules care about. The frontend records these while
/// walking a function's statement tree (including nested lambdas).
enum class OpKind {
  /// Quantity<dim::X>::value() call; detail = dimension name ("Cycles").
  ValueUnwrap,
  /// Construction of a Quantity<dim::X> from raw arithmetic;
  /// detail = dimension name, aux = dimension of a ValueUnwrap found
  /// inside the constructor argument ("" when the argument has none).
  QuantityWrap,
  /// Return statement whose expression contains a ValueUnwrap;
  /// detail = dimension of the unwrap.
  ReturnRaw,
  /// new-expression.
  NewExpr,
  /// Growth call (push_back/emplace_back/resize/reserve/insert/append/
  /// assign) on a std::vector / std::deque / std::string receiver;
  /// detail = member name, aux = receiver type.
  ContainerGrowth,
  /// Local or temporary std::string constructed in the body.
  StringMake,
  /// Iteration over an unordered associative container (range-for or
  /// explicit begin()); detail = container type spelling.
  UnorderedIter,
  /// Declaration of a std:: random engine or distribution outside the
  /// des::RngStream layer; detail = type spelling.
  RngEngine,
};

struct FuncOp {
  OpKind kind;
  SourceLoc loc;
  std::string detail;
  std::string aux;
};

struct CallSite {
  std::string callee;            ///< unqualified spelling ("charge_cycles")
  std::string callee_qualified;  ///< "ncar::sxs::Cpu::charge_cycles" when
                                 ///< the reference resolves, else == callee
  SourceLoc loc;
};

struct Function {
  std::string name;       ///< unqualified spelling
  std::string qualified;  ///< fully qualified ("ncar::sxs::Cpu::vec")
  std::string result_type;  ///< canonical spelling of the return type
  SourceLoc loc;
  /// Main source file of the translation unit this record was seen in;
  /// the hot-path walk only follows calls into definitions visible in the
  /// same TU (out-of-line callees in other TUs are their own roots).
  std::string tu;
  bool is_public = true;  ///< class access; free functions are public
  bool is_definition = false;
  std::vector<CallSite> calls;
  std::vector<FuncOp> ops;
};

struct Model {
  std::vector<Function> functions;
};

}  // namespace ncar::sxsema
