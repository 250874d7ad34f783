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
  std::vector<fs::path> files = collect(root / "src", ".cpp");
  const auto headers = collect(root / "src", ".hpp");
  files.insert(files.end(), headers.begin(), headers.end());
  std::vector<Finding> findings;
  for (const auto& file : files) {
    const std::string text = strip_comments_and_strings(read_file(file));
    for (const char* ident : kBannedIdents) {
      for (std::size_t pos = find_token(text, ident, 0);
           pos != std::string::npos; pos = find_token(text, ident, pos + 1)) {
        findings.push_back({"no-nondeterminism", file, line_of(text, pos),
                            std::string(ident) +
                                " is nondeterministic; model code must "
                                "derive time and randomness from the model"});
      }
    }
    for (const char* called : kBannedCalls) {
      const std::size_t len = std::string(called).size();
      for (std::size_t pos = find_token(text, called, 0);
           pos != std::string::npos;
           pos = find_token(text, called, pos + 1)) {
        if (!is_call(text, pos, len)) continue;
        findings.push_back({"no-nondeterminism", file, line_of(text, pos),
                            std::string(called) +
                                "() is nondeterministic; model code must "
                                "derive time and randomness from the model"});
      }
    }
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
    for (const char* ident : kBanned) {
      for (std::size_t pos = find_token(text, ident, 0);
           pos != std::string::npos; pos = find_token(text, ident, pos + 1)) {
        findings.push_back({"no-stdout", file, line_of(text, pos),
                            std::string(ident) +
                                " in model code; printing belongs in bench/ "
                                "or examples/"});
      }
    }
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
      int depth = 0;
      std::string prev_token;
      bool adjacent = false;  // only whitespace between prev token and current
      std::vector<bool> is_public{true};  // file scope is public
      int pending = -1;  // access for the next '{': 1 public, 0 private
      for (std::size_t i = 0; i < text.size();) {
        const char c = text[i];
        if (ident_char(c)) {
          std::size_t end = i;
          while (end < text.size() && ident_char(text[end])) ++end;
          const std::string token = text.substr(i, end - i);
          // `enum class` opens an enumerator list, not an access scope.
          if (token == "class" && prev_token != "enum") pending = 0;
          if (token == "struct" && prev_token != "enum") pending = 1;
          // Access labels: the token must be followed by a lone ':'
          // (':' ':' is a qualified name like std::vector).
          if (end < text.size() && text[end] == ':' &&
              (end + 1 >= text.size() || text[end + 1] != ':')) {
            if (token == "public") is_public.back() = true;
            if (token == "private" || token == "protected") {
              is_public.back() = false;
            }
          }
          if (depth > 0 && adjacent && prev_token == "double" &&
              is_banned_name(token) && is_public.back()) {
            findings.push_back(
                {"typed-units", file, line_of(text, i),
                 "public parameter `double " + token +
                     "` in a src/" + dir +
                     " header; use the ncar::Quantity types "
                     "from common/quantity.hpp"});
          }
          prev_token = token;
          adjacent = true;
          i = end;
          continue;
        }
        if (c == '(') ++depth;
        if (c == ')') depth = depth > 0 ? depth - 1 : 0;
        if (c == '{') {
          is_public.push_back(pending == -1 ? is_public.back() : pending == 1);
          pending = -1;
        }
        if (c == '}' && is_public.size() > 1) is_public.pop_back();
        if (c == ';') pending = -1;  // forward declaration: no scope opened
        if (std::isspace(static_cast<unsigned char>(c)) == 0) {
          adjacent = false;  // punctuation breaks `double name` adjacency
        }
        ++i;
      }
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
                      check_stdout, check_pragma_once, check_typed_units}) {
    auto found = check(root);
    all.insert(all.end(), found.begin(), found.end());
  }
  sort_and_dedupe(all);
  return all;
}

}  // namespace ncar::sxlint
