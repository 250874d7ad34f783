// libclang (clang-c) frontend: lowers translation units into the sxsema
// semantic model. This is the only file in the tier that needs libclang;
// CMake builds it solely when SX4NCAR_ENABLE_SXSEMA found the library.
//
// The walk is two-tier: find_functions() descends through namespaces and
// record types to every function-shaped declaration located under the
// repository root, and collect_body() then walks that function's subtree
// (nested lambdas included, attributed to the lexical owner) recording the
// calls and the interesting operations the rules consume. Everything else
// — system headers, dependency code — is skipped at the declaration level,
// which keeps the model small and the run deterministic.

#include "frontend.hpp"

#include <clang-c/CXCompilationDatabase.h>
#include <clang-c/Index.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace ncar::sxsema {

namespace {

namespace fs = std::filesystem;

std::string to_string(CXString s) {
  const char* c = clang_getCString(s);
  std::string out = c == nullptr ? "" : c;
  clang_disposeString(s);
  return out;
}

/// Generic recursive visitor: `f` returns the CXChildVisitResult.
template <class F>
void visit_children(CXCursor cursor, F&& f) {
  clang_visitChildren(
      cursor,
      [](CXCursor c, CXCursor parent, CXClientData data) {
        return (*static_cast<F*>(data))(c, parent);
      },
      &f);
}

struct Walker {
  std::string root;      ///< absolute, lexically normal, with trailing '/'
  std::string tu_name;   ///< root-relative main file of the current TU
  Model* model = nullptr;

  // --- locations -----------------------------------------------------------

  /// Root-relative POSIX path of `loc`'s spelling file ("" when the file
  /// is outside the root).
  std::string rel_file(CXSourceLocation loc, unsigned* line,
                       unsigned* col) const {
    CXFile file;
    clang_getSpellingLocation(loc, &file, line, col, nullptr);
    if (file == nullptr) return "";
    const std::string abs =
        fs::path(to_string(clang_getFileName(file))).lexically_normal()
            .generic_string();
    if (abs.rfind(root, 0) != 0) return "";
    return abs.substr(root.size());
  }

  SourceLoc cursor_loc(CXCursor c) const {
    unsigned line = 0, col = 0;
    SourceLoc out;
    out.file = rel_file(clang_getCursorLocation(c), &line, &col);
    out.line = static_cast<int>(line);
    out.col = static_cast<int>(col);
    return out;
  }

  // --- names and types -----------------------------------------------------

  static std::string qualified_name(CXCursor decl) {
    std::string name = to_string(clang_getCursorSpelling(decl));
    CXCursor parent = clang_getCursorSemanticParent(decl);
    while (clang_Cursor_isNull(parent) == 0) {
      const CXCursorKind k = clang_getCursorKind(parent);
      if (k == CXCursor_TranslationUnit || clang_isDeclaration(k) == 0) break;
      const std::string part = to_string(clang_getCursorSpelling(parent));
      if (!part.empty()) name = part + "::" + name;
      parent = clang_getCursorSemanticParent(parent);
    }
    return name;
  }

  static std::string canonical_spelling(CXType t) {
    return to_string(clang_getTypeSpelling(clang_getCanonicalType(t)));
  }

  /// Dimension name of a canonical Quantity spelling:
  /// "ncar::Quantity<ncar::dim::Cycles>" -> "Cycles"; "" when not one.
  static std::string quantity_dim(const std::string& type) {
    const std::size_t q = type.find("Quantity<");
    if (q == std::string::npos) return "";
    std::size_t start = type.find("dim::", q);
    if (start == std::string::npos) {
      start = q + std::string("Quantity<").size();
    } else {
      start += std::string("dim::").size();
    }
    std::size_t end = start;
    while (end < type.size() &&
           (std::isalnum(static_cast<unsigned char>(type[end])) != 0 ||
            type[end] == '_')) {
      ++end;
    }
    return type.substr(start, end - start);
  }

  static bool is_function_kind(CXCursorKind k) {
    return k == CXCursor_FunctionDecl || k == CXCursor_CXXMethod ||
           k == CXCursor_Constructor || k == CXCursor_Destructor ||
           k == CXCursor_ConversionFunction ||
           k == CXCursor_FunctionTemplate;
  }

  static bool is_record_kind(CXCursorKind k) {
    return k == CXCursor_Namespace || k == CXCursor_StructDecl ||
           k == CXCursor_ClassDecl || k == CXCursor_UnionDecl ||
           k == CXCursor_ClassTemplate ||
           k == CXCursor_ClassTemplatePartialSpecialization ||
           k == CXCursor_LinkageSpec || k == CXCursor_UnexposedDecl;
  }

  // --- body collection -----------------------------------------------------

  /// Dimension of the Quantity receiver of a `.value()` member call, or ""
  /// when `call` is not a Quantity unwrap.
  std::string unwrap_dim(CXCursor call) const {
    if (to_string(clang_getCursorSpelling(call)) != "value") return "";
    std::string dim;
    visit_children(call, [&](CXCursor c, CXCursor) {
      if (clang_getCursorKind(c) == CXCursor_MemberRefExpr) {
        visit_children(c, [&](CXCursor base, CXCursor) {
          const std::string t =
              canonical_spelling(clang_getCursorType(base));
          const std::string d = quantity_dim(t);
          if (!d.empty() && dim.empty()) dim = d;
          return CXChildVisit_Break;
        });
        return CXChildVisit_Break;
      }
      return CXChildVisit_Continue;
    });
    return dim;
  }

  /// First Quantity unwrap dimension found anywhere below `cursor`
  /// ("" when none); `other_than` skips unwraps of that dimension.
  std::string find_unwrap_below(CXCursor cursor,
                                const std::string& other_than) const {
    std::string found;
    const std::function<void(CXCursor)> walk = [&](CXCursor c) {
      visit_children(c, [&](CXCursor child, CXCursor) {
        if (!found.empty()) return CXChildVisit_Break;
        if (clang_getCursorKind(child) == CXCursor_CallExpr) {
          const std::string dim = unwrap_dim(child);
          if (!dim.empty() && dim != other_than) {
            found = dim;
            return CXChildVisit_Break;
          }
        }
        walk(child);
        return found.empty() ? CXChildVisit_Continue : CXChildVisit_Break;
      });
    };
    walk(cursor);
    return found;
  }

  /// Receiver type of a member call like `recv.push_back(x)` ("" for free
  /// functions).
  std::string receiver_type(CXCursor call) const {
    std::string type;
    visit_children(call, [&](CXCursor c, CXCursor) {
      if (clang_getCursorKind(c) == CXCursor_MemberRefExpr) {
        visit_children(c, [&](CXCursor base, CXCursor) {
          type = canonical_spelling(clang_getCursorType(base));
          return CXChildVisit_Break;
        });
      }
      return CXChildVisit_Break;
    });
    return type;
  }

  static const char* container_of(const std::string& canonical) {
    if (canonical.find("std::vector<") != std::string::npos ||
        canonical.find("std::__1::vector<") != std::string::npos) {
      return "std::vector";
    }
    if (canonical.find("basic_string<") != std::string::npos) {
      return "std::string";
    }
    if (canonical.find("deque<") != std::string::npos) return "std::deque";
    return nullptr;
  }

  static const char* unordered_of(const std::string& canonical) {
    if (canonical.find("unordered_map<") != std::string::npos) {
      return "std::unordered_map";
    }
    if (canonical.find("unordered_set<") != std::string::npos) {
      return "std::unordered_set";
    }
    if (canonical.find("unordered_multimap<") != std::string::npos) {
      return "std::unordered_multimap";
    }
    if (canonical.find("unordered_multiset<") != std::string::npos) {
      return "std::unordered_multiset";
    }
    return nullptr;
  }

  static bool is_growth_member(const std::string& name) {
    static const char* const kGrowth[] = {
        "push_back", "emplace_back", "push_front", "emplace_front",
        "resize",    "reserve",      "insert",     "emplace",
        "append",    "assign"};
    return std::find_if(std::begin(kGrowth), std::end(kGrowth),
                        [&](const char* g) { return name == g; }) !=
           std::end(kGrowth);
  }

  static bool is_rng_engine_type(const std::string& canonical) {
    static const char* const kEngines[] = {
        "mersenne_twister_engine",   "linear_congruential_engine",
        "subtract_with_carry_engine", "random_device",
        "uniform_int_distribution",  "uniform_real_distribution",
        "normal_distribution",       "bernoulli_distribution",
        "discard_block_engine",      "philox_engine"};
    for (const char* e : kEngines) {
      if (canonical.find(e) != std::string::npos) return true;
    }
    return false;
  }

  void collect_call(CXCursor call, Function& fn) const {
    const std::string callee = to_string(clang_getCursorSpelling(call));
    if (callee.empty()) return;
    CallSite site;
    site.callee = callee;
    site.loc = cursor_loc(call);
    const CXCursor ref = clang_getCursorReferenced(call);
    site.callee_qualified =
        clang_Cursor_isNull(ref) == 0 ? qualified_name(ref) : callee;
    fn.calls.push_back(std::move(site));
  }

  void collect_body(CXCursor body, Function& fn) const {
    const std::function<void(CXCursor)> walk = [&](CXCursor cursor) {
      visit_children(cursor, [&](CXCursor c, CXCursor) {
        const CXCursorKind kind = clang_getCursorKind(c);
        switch (kind) {
          case CXCursor_CallExpr: {
            const std::string dim = unwrap_dim(c);
            if (!dim.empty()) {
              fn.ops.push_back(
                  {OpKind::ValueUnwrap, cursor_loc(c), dim, ""});
            } else {
              const CXCursor ref = clang_getCursorReferenced(c);
              const bool is_ctor =
                  clang_Cursor_isNull(ref) == 0 &&
                  clang_getCursorKind(ref) == CXCursor_Constructor;
              const std::string type =
                  canonical_spelling(clang_getCursorType(c));
              const std::string wrap_dim = quantity_dim(type);
              if (is_ctor && !wrap_dim.empty()) {
                fn.ops.push_back({OpKind::QuantityWrap, cursor_loc(c),
                                  wrap_dim,
                                  find_unwrap_below(c, wrap_dim)});
              }
              const std::string callee =
                  to_string(clang_getCursorSpelling(c));
              if (is_growth_member(callee)) {
                const std::string recv = receiver_type(c);
                const char* container = container_of(recv);
                if (container != nullptr) {
                  fn.ops.push_back({OpKind::ContainerGrowth, cursor_loc(c),
                                    callee, container});
                }
              }
              if (callee == "begin" || callee == "cbegin") {
                const char* unordered = unordered_of(receiver_type(c));
                if (unordered != nullptr) {
                  fn.ops.push_back({OpKind::UnorderedIter, cursor_loc(c),
                                    unordered, ""});
                }
              }
              collect_call(c, fn);
            }
            break;
          }
          case CXCursor_CXXNewExpr:
            fn.ops.push_back({OpKind::NewExpr, cursor_loc(c), "", ""});
            break;
          case CXCursor_ReturnStmt: {
            const std::string dim = find_unwrap_below(c, "");
            if (!dim.empty()) {
              fn.ops.push_back({OpKind::ReturnRaw, cursor_loc(c), dim, ""});
            }
            break;
          }
          case CXCursor_CXXForRangeStmt: {
            visit_children(c, [&](CXCursor child, CXCursor) {
              const char* unordered = unordered_of(
                  canonical_spelling(clang_getCursorType(child)));
              if (unordered != nullptr) {
                fn.ops.push_back({OpKind::UnorderedIter, cursor_loc(child),
                                  unordered, ""});
                return CXChildVisit_Break;
              }
              return CXChildVisit_Continue;
            });
            break;
          }
          case CXCursor_VarDecl: {
            const std::string canonical =
                canonical_spelling(clang_getCursorType(c));
            if (canonical.find('&') == std::string::npos &&
                canonical.find('*') == std::string::npos) {
              if (canonical.find("basic_string<") != std::string::npos) {
                fn.ops.push_back({OpKind::StringMake, cursor_loc(c),
                                  "std::string", ""});
              }
              if (is_rng_engine_type(canonical)) {
                fn.ops.push_back(
                    {OpKind::RngEngine, cursor_loc(c),
                     to_string(clang_getTypeSpelling(
                         clang_getCursorType(c))),
                     ""});
              }
            }
            break;
          }
          default: break;
        }
        walk(c);
        return CXChildVisit_Continue;
      });
    };
    walk(body);
  }

  void record_function(CXCursor c) {
    const SourceLoc loc = cursor_loc(c);
    if (loc.file.empty()) return;  // outside the repository root
    Function fn;
    fn.name = to_string(clang_getCursorSpelling(c));
    fn.qualified = qualified_name(c);
    fn.loc = loc;
    fn.tu = tu_name;
    fn.result_type = canonical_spelling(clang_getCursorResultType(c));
    const auto access = clang_getCXXAccessSpecifier(c);
    fn.is_public = access != CX_CXXPrivate && access != CX_CXXProtected;
    fn.is_definition = clang_isCursorDefinition(c) != 0;
    if (fn.is_definition) collect_body(c, fn);
    model->functions.push_back(std::move(fn));
  }

  void find_functions(CXCursor scope) {
    visit_children(scope, [&](CXCursor c, CXCursor) {
      const CXCursorKind kind = clang_getCursorKind(c);
      if (is_function_kind(kind)) {
        record_function(c);
        return CXChildVisit_Continue;
      }
      if (is_record_kind(kind)) find_functions(c);
      return CXChildVisit_Continue;
    });
  }

  void run(CXTranslationUnit tu) {
    tu_name = fs::path(to_string(clang_getTranslationUnitSpelling(tu)))
                  .lexically_normal()
                  .generic_string();
    if (tu_name.rfind(root, 0) == 0) tu_name = tu_name.substr(root.size());
    find_functions(clang_getTranslationUnitCursor(tu));
  }
};

std::string normal_root(const std::string& root) {
  std::string out = fs::absolute(fs::path(root)).lexically_normal()
                        .generic_string();
  if (out.empty() || out.back() != '/') out += '/';
  return out;
}

bool parse_one(CXIndex index, const std::vector<std::string>& args,
               Walker& walker, std::string& error) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    // The output file is irrelevant to parsing and may point at an
    // unwritable build tree.
    if (args[i] == "-o" && i + 1 < args.size()) {
      ++i;
      continue;
    }
    argv.push_back(args[i].c_str());
  }
  CXTranslationUnit tu = nullptr;
  const CXErrorCode rc = clang_parseTranslationUnit2FullArgv(
      index, nullptr, argv.data(), static_cast<int>(argv.size()), nullptr, 0,
      CXTranslationUnit_None, &tu);
  if (rc != CXError_Success || tu == nullptr) {
    error += "sxsema: failed to parse (code " + std::to_string(rc) + "): ";
    for (const char* a : argv) error += std::string(a) + " ";
    error += "\n";
    if (tu != nullptr) clang_disposeTranslationUnit(tu);
    return false;
  }
  walker.run(tu);
  clang_disposeTranslationUnit(tu);
  return true;
}

}  // namespace

bool build_model(const FrontendOptions& opts, Model& out,
                 std::string& error) {
  Walker walker;
  walker.root = normal_root(opts.root.empty() ? "." : opts.root);
  walker.model = &out;

  CXIndex index = clang_createIndex(/*excludeDeclarationsFromPCH=*/0,
                                    /*displayDiagnostics=*/0);
  std::size_t parsed = 0;

  if (!opts.compdb_dir.empty()) {
    CXCompilationDatabase_Error db_error = CXCompilationDatabase_NoError;
    CXCompilationDatabase db = clang_CompilationDatabase_fromDirectory(
        opts.compdb_dir.c_str(), &db_error);
    if (db_error != CXCompilationDatabase_NoError) {
      error = "sxsema: cannot load compile_commands.json from " +
              opts.compdb_dir;
      clang_disposeIndex(index);
      return false;
    }
    CXCompileCommands commands =
        clang_CompilationDatabase_getAllCompileCommands(db);
    const unsigned n = clang_CompileCommands_getSize(commands);
    for (unsigned i = 0; i < n; ++i) {
      CXCompileCommand cmd = clang_CompileCommands_getCommand(commands, i);
      const std::string file =
          to_string(clang_CompileCommand_getFilename(cmd));
      if (!opts.tu_filter.empty() &&
          file.find(opts.tu_filter) == std::string::npos) {
        continue;
      }
      std::vector<std::string> args;
      const unsigned nargs = clang_CompileCommand_getNumArgs(cmd);
      for (unsigned a = 0; a < nargs; ++a) {
        args.push_back(to_string(clang_CompileCommand_getArg(cmd, a)));
      }
      if (parse_one(index, args, walker, error)) ++parsed;
    }
    clang_CompileCommands_dispose(commands);
    clang_CompilationDatabase_dispose(db);
  }

  for (const std::string& source : opts.sources) {
    std::vector<std::string> args;
    args.push_back("clang++");
    args.insert(args.end(), opts.clang_args.begin(), opts.clang_args.end());
    args.push_back(source);
    if (parse_one(index, args, walker, error)) ++parsed;
  }

  clang_disposeIndex(index);
  if (parsed == 0) {
    if (error.empty()) error = "sxsema: no translation units parsed";
    return false;
  }
  return true;
}

}  // namespace ncar::sxsema
