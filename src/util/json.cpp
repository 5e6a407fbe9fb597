#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>

namespace rbcast::util {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Encodes a basic-multilingual-plane code point.
void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  Json parse() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(std::string(context_) + " JSON, offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool at_digit() const {
    return pos_ < text_.size() && is_digit(text_[pos_]);
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // `depth` counts the containers enclosing this value.
  Json value(int depth) {
    const char c = peek();
    Json v;
    if (c == '{' || c == '[') {
      if (depth == kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
             " levels");
      }
      ++pos_;
      if (c == '{') {
        object(v, depth + 1);
      } else {
        array(v, depth + 1);
      }
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.str = string();
    } else if (consume_literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.type = Json::Type::kBool;
    } else if (!consume_literal("null")) {
      number(v);
    }
    return v;
  }

  void object(Json& v, int depth) {
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return;
    }
    // Objects here are records of a handful to a dozen members (a JSONL
    // trace line carries about ten); starting at 8 skips the 1-2-4-8
    // regrowth that otherwise costs a quarter of the parse.
    v.members.reserve(8);
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      if (peek() != ':') fail("expected ':'");
      ++pos_;
      v.members.emplace_back(std::move(key), value(depth));
      const char c = peek();
      ++pos_;
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void array(Json& v, int depth) {
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      v.items.push_back(value(depth));
      const char c = peek();
      ++pos_;
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  // Called with pos_ on the opening quote.
  std::string string() {
    ++pos_;
    std::string out;
    while (true) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') fail("unescaped control character in string");
      if (++pos_ >= text_.size()) fail("unterminated string");
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail("unsupported escape in string");
      }
    }
  }

  // The code point of a \u escape, pos_ just past the 'u'. Only the
  // basic multilingual plane is decoded; a surrogate half is rejected.
  unsigned code_point() {
    unsigned cp = 0;
    const char* p = text_.data() + pos_;
    const char* end = p + std::min<std::size_t>(4, text_.size() - pos_);
    if (std::from_chars(p, end, cp, 16).ptr != p + 4) fail("bad \\u escape");
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
    pos_ += 4;
    return cp;
  }

  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  // One or more digits.
  void digits(const char* missing) {
    if (!at_digit()) fail(missing);
    while (at_digit()) ++pos_;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void number(Json& v) {
    const char* first = text_.data() + pos_;
    const bool negative = consume('-');
    if (!consume('0')) digits("expected a value");
    bool integral = true;
    if (consume('.')) {
      integral = false;
      digits("expected a digit after '.'");
    }
    if (consume('e') || consume('E')) {
      integral = false;
      if (!consume('+')) consume('-');
      digits("expected a digit in the exponent");
    }
    const char* last = text_.data() + pos_;
    const auto read = [&](auto n) {
      const std::from_chars_result r = std::from_chars(first, last, n);
      if (r.ec != std::errc{} || r.ptr != last) fail("number out of range");
      v.type = Json::Type::kNumber;
      v.number = n;
    };
    if (!integral) {
      read(0.0);
    } else if (negative) {
      read(std::int64_t{0});
    } else {
      read(std::uint64_t{0});
    }
  }

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_{0};
};

[[noreturn]] void bad_member(std::string_view context, std::string_view name,
                             const char* what) {
  throw std::invalid_argument(std::string(context) + ": '" +
                              std::string(name) + "' must be " + what);
}

// `n` as a T when it is an integer in T's range; nullopt otherwise.
template <typename T>
std::optional<T> exact(const Json::Number& n) {
  return std::visit(
      [](auto x) -> std::optional<T> {
        if constexpr (std::is_same_v<decltype(x), double>) {
          // max + 1 is a power of two, so the double bound is exact.
          using L = std::numeric_limits<T>;
          if (x < static_cast<double>(L::min()) ||
              x >= static_cast<double>(L::max()) + 1.0 || x != std::trunc(x)) {
            return std::nullopt;
          }
        } else if (!std::in_range<T>(x)) {
          return std::nullopt;
        }
        return static_cast<T>(x);
      },
      n);
}

}  // namespace

Json parse_json(std::string_view text, std::string_view context) {
  return JsonParser(text, context).parse();
}

double json_to_double(const Json& v, std::string_view context,
                      std::string_view name) {
  if (v.type != Json::Type::kNumber) bad_member(context, name, "a number");
  return std::visit([](auto n) { return static_cast<double>(n); }, v.number);
}

int json_to_int(const Json& v, std::string_view context,
                std::string_view name) {
  (void)json_to_double(v, context, name);  // type check
  if (const auto n = exact<int>(v.number)) return *n;
  bad_member(context, name, "an integer that fits an int");
}

std::uint64_t json_to_u64(const Json& v, std::string_view context,
                          std::string_view name) {
  if (json_to_double(v, context, name) < 0) {
    bad_member(context, name, "non-negative");
  }
  if (const auto n = exact<std::uint64_t>(v.number)) return *n;
  bad_member(context, name, "an integer below 2^64");
}

double json_num_or(const Json& obj, const char* key, double fallback,
                   std::string_view context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_to_double(*v, context, key);
}

int json_int_or(const Json& obj, const char* key, int fallback,
                std::string_view context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_to_int(*v, context, key);
}

std::uint64_t json_u64_or(const Json& obj, const char* key,
                          std::uint64_t fallback, std::string_view context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_to_u64(*v, context, key);
}

bool json_bool_or(const Json& obj, const char* key, bool fallback,
                  std::string_view context) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != Json::Type::kBool) bad_member(context, key, "a boolean");
  return v->boolean;
}

std::string json_str_or(const Json& obj, const char* key, std::string fallback,
                        std::string_view context) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != Json::Type::kString) bad_member(context, key, "a string");
  return v->str;
}

const std::vector<Json>& json_items(const Json& obj, const char* key,
                                   std::string_view context) {
  static const std::vector<Json> kNone;
  const Json* v = obj.find(key);
  if (v == nullptr) return kNone;
  if (v->type != Json::Type::kArray) bad_member(context, key, "an array");
  return v->items;
}

void write_json_string(std::ostream& os, std::string_view s) {
  constexpr const char* kHex = "0123456789abcdef";
  os.put('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\t': escape = "\\t"; break;
      case '\r': escape = "\\r"; break;
      default:
        if (c >= 0x20) continue;
    }
    os.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (escape != nullptr) {
      os << escape;
    } else {
      const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      os.write(u, sizeof u);
    }
  }
  os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os.put('"');
}

std::string json_string(std::string_view s) {
  std::ostringstream os;
  write_json_string(os, s);
  return os.str();
}

std::string format_double(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 12);
  return std::string(buf, r.ptr);
}

}  // namespace rbcast::util
