// Lightweight scope scanner shared by the rbcast_analyze passes.
//
// Walks comment-stripped C++ (see lint::strip_comments) tracking a stack
// of lexical scopes — namespace, type, function, plain block — classified
// from the statement head that precedes each '{'. This is deliberately a
// heuristic, not a parser: it is accurate for the style this codebase
// writes (clang-format, one declaration per statement) and the
// tests/analyze_engine_test.cpp snippets pin the cases that matter
// (member functions, constructor init lists, lambdas, control flow).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rbcast::analyze {

enum class ScopeKind { kNamespace, kType, kFunction, kBlock };

struct Scope {
  ScopeKind kind;
  // Namespace/class name, or the (possibly Class::qualified) function
  // name; empty for plain blocks and anonymous namespaces.
  std::string name;
};

class ScopeScanner {
 public:
  // `code` must already be comment/string-stripped. Callbacks observe the
  // walk; any may be null.
  struct Callbacks {
    // A '{' opened a new scope (already pushed; stack().back() is it).
    // `head` is the whitespace-collapsed statement head before the brace.
    std::function<void(const std::string& head, int line)> on_scope_open;
    // A '}' closed `scope` (already popped) at `line`.
    std::function<void(const Scope& scope, int line)> on_scope_close;
    // A statement terminated with ';' at the current scope. `stmt` is the
    // statement text (whitespace-collapsed), `line` where it started.
    std::function<void(const std::string& stmt, int line)> on_statement;
  };

  explicit ScopeScanner(std::string_view code);

  // Runs the walk to completion.
  void run(const Callbacks& callbacks);

  [[nodiscard]] const std::vector<Scope>& stack() const { return stack_; }

  // Innermost enclosing function name ("" when not inside a function).
  // For member functions defined inside a class body, the name is
  // qualified with the innermost enclosing type ("TimerQueue::pop").
  [[nodiscard]] std::string enclosing_function() const;

  // True when the walk position is at namespace scope (only namespace
  // scopes on the stack).
  [[nodiscard]] bool at_namespace_scope() const;

  // Innermost enclosing type name ("" when none).
  [[nodiscard]] std::string enclosing_type() const;

 private:
  std::string_view code_;
  std::vector<Scope> stack_;
};

// Classifies the statement head preceding a '{'. Exposed for tests.
// `head` is everything after the previous ';', '{' or '}'.
[[nodiscard]] Scope classify_head(const std::string& head,
                                  const std::vector<Scope>& stack);

}  // namespace rbcast::analyze
