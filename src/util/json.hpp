// Shared JSON utilities: string escaping and a minimal parser.
//
// Several writers emit JSON by hand — the schedule-trace dump
// (util/task_graph.cpp), the Table-1 report writer (benchmarks/report.cpp),
// `punt cache stats` and the serve protocol (server/protocol.cpp) — and each
// needs the same escaping of quotes, backslashes and control characters.
// Two readers parse it back — `punt trace` and the serve protocol — and
// both need only objects, arrays, strings, numbers and booleans, so a
// ~100-line recursive-descent parser keeps the repo free of a JSON
// dependency.  One definition keeps escapes and parse behaviour (and their
// edge cases, e.g. \u00XX for raw control bytes) from drifting apart.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace punt::util {

/// Escapes `text` for embedding inside a JSON string literal (the quotes
/// themselves are the caller's).  Control characters below 0x20 without a
/// short escape become \u00XX; everything else passes through verbatim.
std::string json_escape(const std::string& text);

/// One parsed JSON value.  A tagged struct rather than a variant: the two
/// consumers (`punt trace`, serve protocol) walk small documents and the
/// flat layout keeps the accessors trivial.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First value under `key` (objects preserve insertion order), or null.
  const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document.  Throws ParseError carrying the byte
/// offset on malformed input (including trailing characters).
JsonValue parse_json(std::string_view text);

/// Field accessors that fail with the missing/mistyped field's name.
/// `what` describes the document for the diagnostic (e.g. "report JSON");
/// it leads the message, so callers can append their own hints.
const JsonValue& json_require(const JsonValue& object, const std::string& key,
                              JsonValue::Type type, const char* what);
double json_number(const JsonValue& object, const std::string& key, const char* what);
/// json_number narrowed to a non-negative integer count.
std::size_t json_count(const JsonValue& object, const std::string& key, const char* what);
std::string json_string(const JsonValue& object, const std::string& key, const char* what);
bool json_bool(const JsonValue& object, const std::string& key, const char* what);

}  // namespace punt::util
