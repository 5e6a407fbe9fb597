// One flag table per tool: each flag is declared once, and that one
// declaration both parses argv and prints --help (DESIGN.md §22).
//
// Parsing is strict: a number must be consumed whole by std::from_chars
// (no trailing bytes, no overflow, no sign into an unsigned type, finite)
// and lie within the entry's Range; an enum value must be one of its
// names. A repeated flag's last value wins. Rules that span flags stay in
// each tool.
#pragma once

#include <charconv>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rbcast::cli {

// Strict whole-string conversion, also for list values a tool splits
// itself (rbcast_check --clusters 0,1,2).
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

// Shortest text that reads back as `value`.
template <typename T>
std::string format_number(T value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

// Bounds of a numeric entry: `min` and `max` inclusive, `below` exclusive.
template <typename T>
struct Range {
  std::optional<T> min{}, max{}, below{};

  bool contains(T v) const {
    return (!min || v >= *min) && (!max || v <= *max) &&
           (!below || v < *below);
  }
  // ">= 1", "in [0, 1)", or "" when unbounded.
  std::string text() const {
    const std::optional<T> hi = max ? max : below;
    const std::string top = hi ? format_number(*hi) : "";
    if (min && hi) {
      return "in [" + format_number(*min) + ", " + top + (max ? "]" : ")");
    }
    if (min) return ">= " + format_number(*min);
    return hi ? (max ? "<= " : "< ") + top : "";
  }
};

template <typename D>
struct ValueOf { using type = D; };
template <typename T>
struct ValueOf<std::optional<T>> { using type = T; };

// Entries hold pointers to their destinations, which must outlive the
// table.
class Flags {
 public:
  // --help opens with "<program> — <summary>".
  Flags(std::string program, std::string summary);

  // Free text printed in place among the rows: a usage line, a section
  // heading, closing notes.
  Flags& text(std::string block);

  // Presence flag: sets *dest to true.
  Flags& add(std::string name, bool* dest, std::string help);

  // A number or string, held directly (its initial value is the default)
  // or in a std::optional (no default; the tool sees whether it was given).
  template <typename Dest, typename T = typename ValueOf<Dest>::type>
  Flags& add(std::string name, std::string metavar, Dest* dest,
             std::string help, Range<T> range = {}) {
    std::string constraint, default_text;
    if constexpr (std::is_same_v<Dest, std::string>) default_text = *dest;
    if constexpr (std::is_arithmetic_v<Dest>) {
      default_text = format_number(*dest);
    }
    if constexpr (std::is_arithmetic_v<T>) constraint = range.text();
    declare(std::move(name), std::move(metavar), std::move(help), constraint,
            default_text)
        .set = [dest, range, constraint](std::string_view text) -> std::string {
      if constexpr (std::is_same_v<T, std::string>) {
        *dest = std::string(text);
      } else {
        const std::optional<T> v = parse_number<T>(text);
        if (!v) {
          return "'" + std::string(text) + "' is not a valid " +
                 (std::is_floating_point_v<T> ? "number"
                  : std::is_signed_v<T>       ? "integer"
                                              : "non-negative integer");
        }
        if (!range.contains(*v)) {
          return "must be " + constraint + ", got " + std::string(text);
        }
        *dest = *v;
      }
      return "";
    };
    return *this;
  }

  // A value chosen by name from `names`; --help lists them.
  template <typename E>
  Flags& choice(std::string name, std::string metavar, E* dest,
                std::vector<std::pair<std::string, E>> names,
                std::string help) {
    std::string constraint, default_text;
    for (const auto& [text, value] : names) {
      if (!constraint.empty()) constraint += '|';
      constraint += text;
      if (value == *dest) default_text = text;
    }
    declare(std::move(name), std::move(metavar), std::move(help), constraint,
            default_text)
        .set = [dest, names = std::move(names),
                constraint](std::string_view text) -> std::string {
      for (const auto& [known, value] : names) {
        if (known == text) {
          *dest = value;
          return "";
        }
      }
      return "'" + std::string(text) + "' is not one of " + constraint;
    };
    return *this;
  }

  // Non-flag arguments, in order; more than `max` is an error.
  Flags& positional(std::string metavar, std::vector<std::string>* dest,
                    std::string help,
                    std::size_t max = std::numeric_limits<std::size_t>::max());

  // Parses argv[1..argc). std::nullopt: run the tool. Otherwise the exit
  // code: 0 after --help/-h (printed to `out`), 2 after a malformed,
  // out-of-range or missing value, an unknown flag or an extra positional
  // (printed to `err`, naming the flag).
  std::optional<int> parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr) const;

  void print_help(std::ostream& out) const;

  // For rules a single entry cannot state (flags that go together, list
  // lengths): prints "<program>: what (try --help)" to `err`; returns 2.
  int usage_error(const std::string& what, std::ostream& err = std::cerr) const;

 private:
  // One --help row. No name: free text (no metavar) or the positional
  // arguments.
  struct Entry {
    std::string name, metavar, help;  // metavar "" = presence flag
    std::function<std::string(std::string_view)> set;  // "" or why refused
  };

  // Appends "(constraint, default X)" to the help text.
  Entry& declare(std::string name, std::string metavar, std::string help,
                 const std::string& constraint = "",
                 const std::string& default_text = "");

  std::string program_, summary_;
  std::vector<Entry> entries_;
};

}  // namespace rbcast::cli
