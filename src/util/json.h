// The project's one JSON codec: a strict reader and the string and number
// writers every JSON producer shares.
//
// Everything read back goes through parse_json: JSONL trace records,
// chaos specs, rbcast_node configs, /status documents and the analyzer's
// ratchet baseline. The grammar is RFC 8259 plus three rules callers rely
// on (DESIGN.md §20):
//
//  * numbers keep their exact value, typed like trace::FieldValue: an
//    integer literal with a leading '-' is int64, any other integer
//    literal uint64, one with a fraction or exponent double. An integer
//    outside its type's range is rejected, not rounded;
//  * \uXXXX escapes decode to UTF-8 for the basic multilingual plane;
//    surrogate escapes and raw control characters are rejected;
//  * nesting deeper than kJsonMaxDepth containers throws, so a hostile
//    /status body or trace line cannot exhaust the stack.
//
// Member order and duplicate keys are kept as written; find() returns the
// first match. Lives in util so every layer and the standalone analyzer
// can share it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rbcast::util {

inline constexpr int kJsonMaxDepth = 64;

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Number = std::variant<std::int64_t, std::uint64_t, double>;

  Type type{Type::kNull};
  bool boolean{false};
  Number number{std::uint64_t{0}};
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Parses exactly one JSON value (trailing garbage rejected). Throws
// std::invalid_argument on malformed input; `context` prefixes the error
// ("<context> JSON, offset N: ...") so callers name their document kind.
[[nodiscard]] Json parse_json(std::string_view text, std::string_view context);

// Exact conversions of one value. A value of the wrong type, a fraction
// where an integer is wanted, or a value outside the target range throws
// std::invalid_argument ("<context>: '<name>' must be ...").
[[nodiscard]] double json_to_double(const Json& v, std::string_view context,
                                    std::string_view name);
[[nodiscard]] int json_to_int(const Json& v, std::string_view context,
                              std::string_view name);
[[nodiscard]] std::uint64_t json_to_u64(const Json& v,
                                        std::string_view context,
                                        std::string_view name);

// Member access with a fallback for absent keys; a present key goes
// through the conversions above (coercing a typo'd config is worse than
// failing).
[[nodiscard]] double json_num_or(const Json& obj, const char* key,
                                 double fallback, std::string_view context);
[[nodiscard]] int json_int_or(const Json& obj, const char* key, int fallback,
                              std::string_view context);
[[nodiscard]] std::uint64_t json_u64_or(const Json& obj, const char* key,
                                        std::uint64_t fallback,
                                        std::string_view context);
[[nodiscard]] bool json_bool_or(const Json& obj, const char* key,
                                bool fallback, std::string_view context);
[[nodiscard]] std::string json_str_or(const Json& obj, const char* key,
                                      std::string fallback,
                                      std::string_view context);
// The items of array member `key`, empty when the key is absent.
[[nodiscard]] const std::vector<Json>& json_items(const Json& obj,
                                                  const char* key,
                                                  std::string_view context);

// --- writing ---------------------------------------------------------------

// `s` as a quoted JSON string: '"', '\\', \n, \t and \r get their short
// escapes, every other byte below 0x20 becomes \u00xx, and all other bytes
// (UTF-8 included) pass through unchanged.
void write_json_string(std::ostream& os, std::string_view s);
[[nodiscard]] std::string json_string(std::string_view s);

// A double at 12 significant digits in the shortest of fixed/scientific
// notation (printf "%.12g", no locale): how every writer in the project
// prints a double, so the JSONL, /status and Prometheus outputs agree.
// Non-finite values print as nan/inf; JSON writers that may see one must
// map it themselves.
[[nodiscard]] std::string format_double(double v);

}  // namespace rbcast::util
