#include "sxlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <tuple>

namespace ncar::sxlint {

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() + static_cast<long>(pos),
                                         '\n'));
}

/// Position of the next occurrence of identifier `token` with identifier
/// boundaries on both sides, starting at `from`; npos if none.
std::size_t find_token(const std::string& text, const std::string& token,
                       std::size_t from) {
  for (std::size_t i = text.find(token, from); i != std::string::npos;
       i = text.find(token, i + 1)) {
    const bool left_ok = i == 0 || !ident_char(text[i - 1]);
    const std::size_t end = i + token.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return i;
  }
  return std::string::npos;
}

bool has_token(const std::string& text, const std::string& token) {
  return find_token(text, token, 0) != std::string::npos;
}

/// True when token at `pos` (already boundary-checked) is a call: the next
/// non-space character is '('. Catches `time(0)` and `std::time(nullptr)`
/// without firing on variables that merely *contain* the name.
bool is_call(const std::string& text, std::size_t pos,
             std::size_t token_len) {
  std::size_t i = pos + token_len;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i < text.size() && text[i] == '(';
}

/// A `rule` finding at every exact-token occurrence in `text` of each of
/// `tokens` (only where it is called, when `calls_only`), reading
/// "<token><suffix>".
template <typename Tokens>
void flag_tokens(std::vector<Finding>& out, const char* rule,
                 const fs::path& file, const std::string& text,
                 const Tokens& tokens, const std::string& suffix,
                 bool calls_only = false) {
  for (const std::string token : tokens) {
    for (std::size_t pos = find_token(text, token, 0);
         pos != std::string::npos; pos = find_token(text, token, pos + 1)) {
      if (calls_only && !is_call(text, pos, token.size())) continue;
      out.push_back({rule, file, line_of(text, pos), token + suffix});
    }
  }
}

bool in_testdata(const fs::path& p, const fs::path& scan_root) {
  // Only components *below* the scan root count: linting a repo skips its
  // fixture trees, while pointing the linter AT a fixture tree still works.
  std::error_code ec;
  const fs::path rel = fs::relative(p, scan_root, ec);
  if (ec) return false;
  for (const auto& part : rel) {
    if (part == "testdata") return true;
  }
  return false;
}

std::vector<fs::path> collect(const fs::path& dir,
                              const std::string& extension) {
  std::vector<fs::path> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    // Lint fixtures contain deliberate violations; never lint them as
    // project sources.
    if (entry.is_regular_file() && entry.path().extension() == extension &&
        !in_testdata(entry.path(), dir)) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool under(const fs::path& file, const fs::path& root, const char* prefix) {
  return fs::relative(file, root).generic_string().rfind(prefix, 0) == 0;
}

/// One token of stripped source: an identifier or a single punctuation
/// character, with the paren depth and the access of the scope it is in.
struct Token {
  std::size_t pos = 0;
  std::string text;
  int paren_depth = 0;
  bool is_public = true;
};

/// Tokenise stripped source, tracking access sections with a brace stack:
/// `class` opens private, `struct` opens public, an anonymous namespace is
/// private, plain braces (namespaces, function bodies) inherit, and
/// `public:` / `private:` / `protected:` labels flip the current scope.
std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> out;
  int depth = 0;
  std::vector<bool> is_public{true};  // file scope is public
  int pending = -1;  // access for the next '{': 1 public, 0 private
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    if (ident_char(c)) {
      while (end < text.size() && ident_char(text[end])) ++end;
    }
    Token t{i, text.substr(i, end - i), depth, is_public.back()};
    const std::string prev = out.empty() ? "" : out.back().text;
    if (ident_char(c)) {
      // `enum class` opens an enumerator list, not an access scope.
      if (t.text == "class" && prev != "enum") pending = 0;
      if (t.text == "struct" && prev != "enum") pending = 1;
      // Access labels: the token must be followed by a lone ':'
      // (':' ':' is a qualified name like std::vector).
      if (end < text.size() && text[end] == ':' &&
          (end + 1 >= text.size() || text[end + 1] != ':')) {
        if (t.text == "public") is_public.back() = true;
        if (t.text == "private" || t.text == "protected") {
          is_public.back() = false;
        }
      }
    }
    if (c == '(') ++depth;
    if (c == ')') depth = depth > 0 ? depth - 1 : 0;
    if (c == '{') {
      if (prev == "namespace") pending = 0;
      is_public.push_back(pending == -1 ? is_public.back() : pending == 1);
      pending = -1;
    }
    if (c == '}' && is_public.size() > 1) is_public.pop_back();
    if (c == ';') pending = -1;  // forward declaration: no scope opened
    out.push_back(std::move(t));
    i = end;
  }
  return out;
}

/// Index of the bracket that closes the '(' or '{' at `open` (tk.size()
/// when unbalanced).
std::size_t match_forward(const std::vector<Token>& tk, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < tk.size(); ++k) {
    if (tk[k].text == "(" || tk[k].text == "{") ++depth;
    if ((tk[k].text == ")" || tk[k].text == "}") && --depth == 0) return k;
  }
  return tk.size();
}

/// Index of the '(' that the ')' at `close` closes (tk.size() when
/// unbalanced).
std::size_t match_backward(const std::vector<Token>& tk, std::size_t close) {
  int depth = 0;
  for (std::size_t k = close + 1; k-- > 0;) {
    if (tk[k].text == ")") ++depth;
    if (tk[k].text == "(" && --depth == 0) return k;
  }
  return tk.size();
}

}  // namespace

std::string strip_comments_and_strings(const std::string& source) {
  enum class State { Code, LineComment, BlockComment, String, Char };
  std::string out = source;
  State state = State::Code;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::String;
        } else if (c == '\'') {
          state = State::Char;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          state = State::Code;
        } else {
          out[i] = ' ';
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::String:
      case State::Char: {
        const char quote = state == State::String ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < source.size() && source[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> check_bench_reporter(const fs::path& root) {
  std::vector<Finding> findings;
  for (const auto& file : collect(root / "bench", ".cpp")) {
    // bench_gate is the baseline-diff tool, not a benchmark: it consumes
    // reporter output rather than producing it.
    if (file.filename() == "bench_gate.cpp") continue;
    const std::string text = strip_comments_and_strings(read_file(file));
    const std::size_t main_pos = find_token(text, "main", 0);
    if (main_pos == std::string::npos ||
        !is_call(text, main_pos, 4)) {
      continue;  // no main: harness library code, headers' companions, ...
    }
    if (!has_token(text, "BenchReporter")) {
      findings.push_back(
          {"bench-reporter", file, line_of(text, main_pos),
           "bench main must route results through the BenchReporter "
           "harness so the regression gate sees them"});
    }
  }
  return findings;
}

std::vector<Finding> check_nondeterminism(const fs::path& root) {
  // Model code must be deterministic: no wall or CPU clocks, no global
  // RNG. Short, common names are only flagged when called; the rest are
  // banned outright.
  static const char* const kBannedIdents[] = {
      "srand",        "gettimeofday", "clock_gettime",        "random_device",
      "steady_clock", "system_clock", "high_resolution_clock",
  };
  static const char* const kBannedCalls[] = {
      "rand", "time", "clock", "drand48", "lrand48", "random", "getrusage",
  };
  // Raw std random engines belong to the RNG layers alone (src/des/rng*,
  // src/common/rng*), where streams are named and seeded; unordered
  // containers belong nowhere, since their iteration order is unspecified
  // and would leak into charged or serialized state.
  static const char* const kEnginePrefixes[] = {"mt19937", "minstd_rand",
                                                "ranlux"};
  static const char* const kEngines[] = {
      "knuth_b",
      "default_random_engine",
      "linear_congruential_engine",
      "mersenne_twister_engine",
      "subtract_with_carry_engine",
      "discard_block_engine",
      "independent_bits_engine",
      "shuffle_order_engine",
  };
  const auto is_engine = [](const std::string& t) {
    for (const char* p : kEnginePrefixes) {
      if (t.rfind(p, 0) == 0) return true;
    }
    for (const char* e : kEngines) {
      if (t == e) return true;
    }
    return false;
  };
  std::vector<fs::path> files = collect(root / "src", ".cpp");
  const auto headers = collect(root / "src", ".hpp");
  files.insert(files.end(), headers.begin(), headers.end());
  std::vector<Finding> findings;
  for (const auto& file : files) {
    const std::string text = strip_comments_and_strings(read_file(file));
    const bool rng_layer = under(file, root, "src/des/rng") ||
                           under(file, root, "src/common/rng");
    for (const Token& t : tokenize(text)) {
      if (t.text.rfind("unordered_", 0) == 0) {
        findings.push_back({"no-nondeterminism", file, line_of(text, t.pos),
                            t.text +
                                " has unspecified iteration order; use an "
                                "ordered or indexed container"});
      }
      if (!rng_layer && is_engine(t.text)) {
        findings.push_back({"no-nondeterminism", file, line_of(text, t.pos),
                            "std random engine " + t.text +
                                " outside src/des/rng* and src/common/rng*; "
                                "draw from a named RNG stream"});
      }
    }
    const std::string why =
        " is nondeterministic; model code must derive time and randomness "
        "from the model";
    flag_tokens(findings, "no-nondeterminism", file, text, kBannedIdents,
                why);
    flag_tokens(findings, "no-nondeterminism", file, text, kBannedCalls,
                "()" + why, /*calls_only=*/true);
  }
  return findings;
}

std::vector<Finding> check_stdout(const fs::path& root) {
  // Presentation belongs in bench/ and examples/; model code stays silent
  // (snprintf into buffers is fine — only stream/stdout writes are banned).
  static const char* const kBanned[] = {"printf", "puts", "cout"};
  std::vector<Finding> findings;
  for (const auto& file : collect(root / "src", ".cpp")) {
    const std::string text = strip_comments_and_strings(read_file(file));
    flag_tokens(findings, "no-stdout", file, text, kBanned,
                " in model code; printing belongs in bench/ or examples/");
  }
  return findings;
}

std::vector<Finding> check_pragma_once(const fs::path& root) {
  std::vector<Finding> findings;
  for (const char* dir : {"src", "bench", "tests", "tools"}) {
    for (const auto& file : collect(root / dir, ".hpp")) {
      const std::string text = strip_comments_and_strings(read_file(file));
      // First non-blank content (comments already blanked) must be the guard.
      const std::size_t first = text.find_first_not_of(" \t\r\n");
      if (first != std::string::npos &&
          text.compare(first, 12, "#pragma once") == 0) {
        continue;
      }
      findings.push_back({"pragma-once", file, 1,
                          "header must start with #pragma once"});
    }
  }
  return findings;
}

std::vector<Finding> check_typed_units(const fs::path& root) {
  // In src/sxs and src/machines headers a *publicly visible* parameter
  // `double seconds` / `double bytes` / `double flops` (or a `_seconds` /
  // `_bytes` / `_flops` suffix) defeats the dimension system — it must be
  // ncar::Seconds / ncar::Bytes / ncar::Flops. Parameters are recognised
  // by paren depth > 0; struct fields and method *names* sit at depth 0.
  // A brace stack tracks access sections so private helpers may keep raw
  // doubles: `class` opens private, `struct` opens public, plain braces
  // (namespaces, function bodies) inherit, and `public:` / `private:` /
  // `protected:` labels flip the current scope.
  const auto is_banned_name = [](const std::string& name) {
    for (const char* suffix : {"seconds", "bytes", "flops"}) {
      const std::string s(suffix);
      if (name == s) return true;
      if (name.size() > s.size() + 1 &&
          name.compare(name.size() - s.size() - 1, s.size() + 1, "_" + s) ==
              0) {
        return true;
      }
    }
    return false;
  };
  std::vector<Finding> findings;
  for (const char* dir : {"sxs", "machines", "iosim"}) {
    for (const auto& file : collect(root / "src" / dir, ".hpp")) {
      const std::string text = strip_comments_and_strings(read_file(file));
      const std::vector<Token> tokens = tokenize(text);
      for (std::size_t k = 1; k < tokens.size(); ++k) {
        const Token& t = tokens[k];
        if (t.paren_depth > 0 && tokens[k - 1].text == "double" &&
            is_banned_name(t.text) && t.is_public) {
          findings.push_back(
              {"typed-units", file, line_of(text, t.pos),
               "public parameter `double " + t.text + "` in a src/" + dir +
                   " header; use the ncar::Quantity types "
                   "from common/quantity.hpp"});
        }
      }
    }
  }
  return findings;
}

std::vector<Finding> check_unit_leak(const fs::path& root) {
  // Two ways a dimension escapes in src/sxs, src/machines, src/iosim and
  // src/des, sources and headers:
  //   (a) a Seconds / Cycles (or Quantity<dim::Seconds|Cycles>) built from
  //       an argument that unwraps a quantity with .value(): a clock
  //       conversion belongs in MachineConfig::to_seconds / to_cycles, and
  //       any other re-wrap is arithmetic the Quantity types already do;
  //   (b) a public function declared to return a raw double, float or
  //       uint64 whose return statement unwraps a quantity with .value().
  // A function body is a '{' after ')' (or a trailing const/noexcept/
  // override/final) outside any other body; access comes from the
  // typed-units tracker. (b) skips out-of-line definitions
  // (`double Foo::bar()`): their access is declared in the class, which a
  // token scan of the .cpp does not see.
  struct Scope {
    bool body = false;        ///< a function body, or a block inside one
    std::string name;         ///< the class or function that opened it
    std::string owner;        ///< for a function body: its class
    bool raw_public = false;  ///< body of a public raw-returning function
  };
  const auto unwraps = [](const std::vector<Token>& tk, std::size_t from,
                          std::size_t to) {
    to = std::min(to, tk.size());
    for (std::size_t k = from + 1; k + 2 < to; ++k) {
      if (tk[k].text == "value" &&
          (tk[k - 1].text == "." || tk[k - 1].text == ">") &&
          tk[k + 1].text == "(" && tk[k + 2].text == ")") {
        return true;
      }
    }
    return false;
  };
  std::vector<Finding> findings;
  for (const char* dir : {"sxs", "machines", "iosim", "des"}) {
    std::vector<fs::path> files = collect(root / "src" / dir, ".hpp");
    const auto sources = collect(root / "src" / dir, ".cpp");
    files.insert(files.end(), sources.begin(), sources.end());
    for (const auto& file : files) {
      const std::string text = strip_comments_and_strings(read_file(file));
      const std::vector<Token> tk = tokenize(text);
      std::vector<Scope> scopes{Scope{}};
      std::string next_class;
      for (std::size_t k = 0; k < tk.size(); ++k) {
        const std::string& t = tk[k].text;
        const std::string& prev = k > 0 ? tk[k - 1].text : t;
        if ((t == "class" || t == "struct") && prev != "enum" &&
            k + 1 < tk.size()) {
          next_class = tk[k + 1].text;
        }
        if (t == ";") next_class.clear();
        if (t == "}" && scopes.size() > 1) scopes.pop_back();
        if (t == "{") {
          Scope s;
          std::size_t close = k;
          while (close > 0 && tk[close - 1].text != ")" &&
                 (tk[close - 1].text == "const" ||
                  tk[close - 1].text == "noexcept" ||
                  tk[close - 1].text == "override" ||
                  tk[close - 1].text == "final")) {
            --close;
          }
          const std::size_t open = close > 0 && tk[close - 1].text == ")"
                                       ? match_backward(tk, close - 1)
                                       : tk.size();
          if (scopes.back().body) {
            s = scopes.back();  // a block or lambda inside a body
          } else if (open >= 2 && open < tk.size()) {
            const std::size_t name = open - 1;
            const bool qualified = name >= 3 && tk[name - 1].text == ":" &&
                                   tk[name - 2].text == ":";
            const std::string& ret = tk[name - 1].text;
            const bool raw =
                ret == "double" || ret == "float" || ret == "uint64_t" ||
                (ret == "long" && name >= 2 && tk[name - 2].text == "unsigned");
            s.body = true;
            s.name = tk[name].text;
            s.owner = qualified ? tk[name - 3].text : scopes.back().name;
            s.raw_public = raw && !qualified && tk[name - 1].is_public;
          } else {
            s.name = next_class;
          }
          next_class.clear();
          scopes.push_back(std::move(s));
        }
        const Scope& scope = scopes.back();
        if (t == "return" && scope.raw_public) {
          std::size_t end = k + 1;
          while (end < tk.size() && tk[end].text != ";") {
            const bool opens = tk[end].text == "(" || tk[end].text == "{";
            end = opens ? match_forward(tk, end) + 1 : end + 1;
          }
          if (unwraps(tk, k, end)) {
            findings.push_back(
                {"unit-leak", file, line_of(text, tk[k].pos),
                 "public function '" + scope.name +
                     "' returns a raw number unwrapped with .value(); "
                     "return the ncar::Quantity instead"});
          }
        }
        if ((t == "Seconds" || t == "Cycles") && k + 2 < tk.size()) {
          // Seconds(...), or Quantity<dim::Seconds>(...).
          const std::size_t open =
              tk[k + 1].text == "(" ? k + 1
              : tk[k + 1].text == ">" && tk[k + 2].text == "(" && prev == ":"
                  ? k + 2
                  : 0;
          const bool clock_conversion =
              scope.body && scope.owner == "MachineConfig" &&
              (scope.name == "to_seconds" || scope.name == "to_cycles");
          if (open != 0 && !clock_conversion &&
              unwraps(tk, open, match_forward(tk, open) + 1)) {
            findings.push_back(
                {"unit-leak", file, line_of(text, tk[k].pos),
                 t + " built from a .value() unwrap outside "
                     "MachineConfig::to_seconds/to_cycles; keep the "
                     "arithmetic in ncar::Quantity types"});
          }
        }
      }
    }
  }
  return findings;
}

std::vector<Finding> check_knob_table(const fs::path& root) {
  // The environment has one reader, the knob table's translation unit: a
  // read anywhere else would skip its unknown-name check and its parsers.
  static const char* const kBanned[] = {"getenv", "secure_getenv",
                                        "environ"};
  std::vector<Finding> findings;
  for (const char* dir : {"src", "bench", "examples", "tools"}) {
    std::vector<fs::path> files = collect(root / dir, ".cpp");
    const auto headers = collect(root / dir, ".hpp");
    files.insert(files.end(), headers.begin(), headers.end());
    for (const auto& file : files) {
      if (under(file, root, "src/common/knobs.cpp")) continue;
      const std::string text = strip_comments_and_strings(read_file(file));
      flag_tokens(findings, "knob-table", file, text, kBanned,
                  " outside src/common/knobs.cpp; read SX4NCAR_* knobs "
                  "through the knob table");
    }
  }
  return findings;
}

void sort_and_dedupe(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
}

std::vector<Finding> lint_tree(const fs::path& root) {
  std::vector<Finding> all;
  for (auto* check : {check_bench_reporter, check_nondeterminism,
                      check_stdout, check_pragma_once, check_typed_units,
                      check_unit_leak, check_knob_table}) {
    auto found = check(root);
    all.insert(all.end(), found.begin(), found.end());
  }
  sort_and_dedupe(all);
  return all;
}

}  // namespace ncar::sxlint
