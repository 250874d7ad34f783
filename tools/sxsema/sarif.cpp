#include "sarif.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace ncar::sxsema {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleDoc {
  const char* id;
  const char* text;
};

constexpr RuleDoc kRuleDocs[] = {
    {"sema-hot-alloc",
     "charge_step/charge_cycles/access_range and numeric time-step roots "
     "(step/advect/combine) call graphs must not allocate"},
    {"sema-nondet",
     "no raw std random engines or unordered iteration in model code"},
    {"sema-unit-leak",
     "no raw double/uint64 escape of dimensioned ncar::Quantity values"},
};

// --- minimal JSON reader (baseline files only) -----------------------------
//
// Just enough of a recursive-descent parser to pull partialFingerprints out
// of a SARIF document: objects, arrays, strings, and skipped scalars. The
// emitter above is the only writer; this reader is deliberately strict and
// returns false on anything malformed.

struct Json;
using JsonObject = std::map<std::string, Json>;
using JsonArray = std::vector<Json>;

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  std::string string;
  JsonArray array;
  JsonObject object;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string_value(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return false;
            }
            // Baselines only ever hold ASCII; decode the BMP code point
            // as UTF-8 so round trips stay lossless anyway.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }

  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out.kind = Json::Kind::Object;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string_value(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        Json v;
        if (!value(v)) return false;
        out.object.emplace(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out.kind = Json::Kind::Array;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json v;
        if (!value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out.kind = Json::Kind::String;
      return string_value(out.string);
    }
    if (c == 't') {
      out.kind = Json::Kind::Bool;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = Json::Kind::Bool;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = Json::Kind::Null;
      return literal("null");
    }
    out.kind = Json::Kind::Number;
    return number();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

const Json* get(const Json& j, const char* key) {
  if (j.kind != Json::Kind::Object) return nullptr;
  const auto it = j.object.find(key);
  return it == j.object.end() ? nullptr : &it->second;
}

}  // namespace

std::string write_sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"sxsema\",\n"
      << "          \"version\": \"1.0.0\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kRuleDocs); ++i) {
    out << "            {\n"
        << "              \"id\": \"" << kRuleDocs[i].id << "\",\n"
        << "              \"shortDescription\": { \"text\": \""
        << escape(kRuleDocs[i].text) << "\" }\n"
        << "            }" << (i + 1 < std::size(kRuleDocs) ? "," : "")
        << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\n"
        << "          \"ruleId\": \"" << escape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": { \"text\": \"" << escape(f.message)
        << "\" },\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": { \"uri\": \""
        << escape(f.file) << "\" },\n"
        << "                \"region\": { \"startLine\": " << f.line
        << ", \"startColumn\": " << f.col << " }\n"
        << "              }\n"
        << "            }\n"
        << "          ],\n"
        << "          \"partialFingerprints\": { \"sxsema/v1\": \""
        << escape(fingerprint(f)) << "\" }\n"
        << "        }";
  }
  out << (findings.empty() ? "]\n" : "\n      ]\n");
  out << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

bool read_baseline_fingerprints(const std::string& text,
                                std::vector<std::string>& out) {
  out.clear();
  Json doc;
  if (!Parser(text).parse(doc)) return false;
  const Json* runs = get(doc, "runs");
  if (runs == nullptr || runs->kind != Json::Kind::Array) return false;
  for (const Json& run : runs->array) {
    const Json* results = get(run, "results");
    if (results == nullptr) continue;
    if (results->kind != Json::Kind::Array) return false;
    for (const Json& result : results->array) {
      const Json* prints = get(result, "partialFingerprints");
      if (prints == nullptr) return false;
      const Json* fp = get(*prints, "sxsema/v1");
      if (fp == nullptr || fp->kind != Json::Kind::String) return false;
      out.push_back(fp->string);
    }
  }
  return true;
}

std::vector<Finding> suppress_baselined(
    const std::vector<Finding>& findings,
    const std::vector<std::string>& baseline) {
  const std::set<std::string> known(baseline.begin(), baseline.end());
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (known.count(fingerprint(f)) == 0) out.push_back(f);
  }
  return out;
}

}  // namespace ncar::sxsema
