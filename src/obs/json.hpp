// Minimal JSON value tree: enough to build, serialize, parse, and
// round-trip the machine-readable report (core/report) and to let
// tests inspect trace files — without an external dependency.
//
// Objects preserve insertion order so two identical runs dump
// byte-identical documents. Numbers keep their literal text, so
// uint64 counters survive a parse → dump round trip exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pgasq::obs {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(std::uint64_t v);
  static Json number(std::int64_t v);
  static Json number(int v) { return number(static_cast<std::int64_t>(v)); }
  static Json number(double v);
  /// A pre-validated numeric literal kept verbatim (parser internal).
  static Json raw_number(std::string literal);
  static Json string(std::string v);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Object: inserts or overwrites; returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Object: nullptr when absent.
  const Json* find(const std::string& key) const;
  /// Object: throws Error when absent.
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& items() const;

  /// Array.
  void push(Json value);
  const Json& operator[](std::size_t i) const;

  /// Array or object element count.
  std::size_t size() const;

  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Throws Error with byte offset on malformed input.
  static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  // number literal text, or string value
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace pgasq::obs
