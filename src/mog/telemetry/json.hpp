// Minimal JSON value type: enough to write Chrome traces and BENCH_*.json
// reports and to parse them back (bench_gate, schema round-trip tests).
//
// Objects preserve insertion order so emitted files diff cleanly; numbers
// print as integers when they are integral (counters) and with round-trip
// precision otherwise. parse() accepts standard JSON and throws mog::Error
// with a byte offset on malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "mog/common/error.hpp"

namespace mog::telemetry {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(std::int64_t v) : value_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : value_(static_cast<double>(v)) {}
  Json(const char* s) : value_(std::string{s}) {}
  Json(std::string s) : value_(std::move(s)) {}
  explicit Json(Array a) : value_(std::move(a)) {}

  static Json array() { return Json{Array{}}; }
  static Json object() { return Json{Object{}}; }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const { return get<double>("number"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  Array& as_array() { return mut<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }
  Object& as_object() { return mut<Object>("object"); }

  /// Object lookup; nullptr when missing (or not an object).
  const Json* find(std::string_view key) const;

  /// Object insert-or-assign (keeps first-insertion order).
  Json& set(std::string key, Json value);

  void push_back(Json value) { mut<Array>("array").push_back(std::move(value)); }

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  static Json parse(std::string_view text);

 private:
  using Value =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;
  explicit Json(Value v) : value_(std::move(v)) {}

  template <typename T>
  const T& get(const char* what) const {
    const T* p = std::get_if<T>(&value_);
    MOG_CHECK(p != nullptr, std::string("JSON value is not a ") + what);
    return *p;
  }
  template <typename T>
  T& mut(const char* what) {
    T* p = std::get_if<T>(&value_);
    MOG_CHECK(p != nullptr, std::string("JSON value is not a ") + what);
    return *p;
  }

  void dump_to(std::string& out, int indent, int depth) const;

  Value value_;
};

/// Read a whole file into a parsed Json (throws mog::Error on I/O failure).
Json read_json_file(const std::string& path);

/// Write `value` to `path` with 2-space indentation and a trailing newline.
void write_json_file(const std::string& path, const Json& value);

}  // namespace mog::telemetry
