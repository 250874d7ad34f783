#pragma once
// Minimal JSON value with a deterministic writer and a strict parser.
//
// The bench harness needs machine-readable output (bench/results/*.json,
// bench/baselines/*.json, BENCH_SUMMARY.json) without adding a dependency
// the container may not have, so this is a small self-contained JSON
// implementation. Two properties matter more than generality:
//
//  * Determinism: object members keep insertion order and doubles are
//    rendered with the shortest round-trip representation
//    (std::to_chars), so identical values serialise to identical bytes —
//    the bench determinism tests diff emitted files byte-for-byte.
//  * Round-trip: parse(dump(v)) == v for every value the harness writes.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ncar::bench {

class Json;

/// Thrown on malformed input; carries a byte offset for diagnostics.
class JsonParseError : public std::runtime_error {
public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

private:
  std::size_t offset_;
};

class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// Insertion-ordered; duplicate keys are rejected by the parser.
  using Object = std::vector<std::pair<std::string, Json>>;
  using Array = std::vector<Json>;

  Json() : kind_(Kind::Null) {}
  Json(std::nullptr_t) : kind_(Kind::Null) {}
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double d) : kind_(Kind::Number), num_(d) {}
  Json(int i) : kind_(Kind::Number), num_(i) {}
  Json(long l) : kind_(Kind::Number), num_(static_cast<double>(l)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Json(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
  Json(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object helpers. `set` appends or overwrites in place (order kept);
  /// `find` returns nullptr when the key is absent.
  void set(const std::string& key, Json value);
  const Json* find(const std::string& key) const;
  /// Member access that throws with the key name when absent.
  const Json& at(const std::string& key) const;

  /// Array helper.
  void push_back(Json value);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  /// Render. `indent` > 0 pretty-prints with that many spaces per level;
  /// 0 emits a compact single line. Always ends without a trailing newline.
  std::string dump(int indent = 2) const;

  /// Parse a complete document; trailing garbage is an error.
  static Json parse(std::string_view text);

  /// Parse the file at `path`; throws std::runtime_error when it cannot be
  /// opened, JsonParseError when it does not parse.
  static Json load(const std::string& path);
  /// Write dump() plus a newline to `path`, creating its parent
  /// directories; throws std::runtime_error when the write fails. Every
  /// JSON file the bench harness emits goes through here.
  void save(const std::string& path) const;

  /// format_round_trip (common/units.hpp), with null for non-finite
  /// values. Exposed for tests.
  static std::string number_to_string(double v);

private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace ncar::bench
