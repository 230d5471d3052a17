#ifndef TCDP_BENCH_JSON_H_
#define TCDP_BENCH_JSON_H_

/// \file
/// Minimal JSON document model for the benchmark harness: the unified
/// BENCH.json report is written through it and the comparator parses
/// committed baselines back through it. Objects preserve insertion
/// order so emitted reports diff cleanly run-over-run.
///
/// Intentionally small: doubles only (no int/double split), UTF-8
/// passed through verbatim, \uXXXX escapes decoded to UTF-8 on parse.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tcdp {
namespace bench {

class Json;
using JsonArray = std::vector<Json>;

/// Insertion-ordered string -> Json map.
class JsonObject {
 public:
  Json* Find(const std::string& key);
  const Json* Find(const std::string& key) const;
  /// Inserts or overwrites \p key.
  Json& Set(const std::string& key, Json value);
  const std::vector<std::pair<std::string, Json>>& items() const {
    return items_;
  }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

 private:
  std::vector<std::pair<std::string, Json>> items_;
};

/// \brief One JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}           // NOLINT
  Json(int i) : type_(Type::kNumber), number_(i) {}              // NOLINT
  Json(std::size_t u)                                            // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  Json(std::string s)                                            // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  Json(JsonArray a)                                              // NOLINT
      : type_(Type::kArray), array_(std::move(a)) {}
  Json(JsonObject o)                                             // NOLINT
      : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  JsonArray& as_array() { return array_; }
  const JsonObject& as_object() const { return object_; }
  JsonObject& as_object() { return object_; }

  /// Serializes with 2-space indentation and a trailing newline at the
  /// top level (matching the style of the previous hand-written
  /// BENCH_*.json emitters).
  std::string Dump() const;

  /// Parses a complete document; trailing non-whitespace is an error.
  static StatusOr<Json> Parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Appends \p s to \p out as a quoted JSON string: `"` and `\\` escaped,
/// \n \t \r by name, other control bytes as \u00XX, all else verbatim.
void AppendJsonString(const std::string& s, std::string* out);

/// Convenience lookups returning errors instead of default values, so
/// schema violations in a baseline surface as messages naming the
/// offending key.
StatusOr<const Json*> GetMember(const Json& object, const std::string& key);
StatusOr<double> GetNumber(const Json& object, const std::string& key);
StatusOr<std::string> GetString(const Json& object, const std::string& key);
StatusOr<bool> GetBool(const Json& object, const std::string& key);

}  // namespace bench
}  // namespace tcdp

#endif  // TCDP_BENCH_JSON_H_
