// A small recursive-descent JSON parser for the tests that check the
// library's JSON artifacts.  Not a general-purpose JSON library: numbers are
// doubles, and inputs larger than a few megabytes are not the target.
#ifndef TESTS_JSON_PARSE_H_
#define TESTS_JSON_PARSE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace autonet {

// Parsed JSON value (numbers are doubles).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Returns nullopt on malformed input (including trailing garbage).
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace autonet

#endif  // TESTS_JSON_PARSE_H_
