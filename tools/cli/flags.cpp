#include "cli/flags.h"

#include <algorithm>
#include <sstream>

namespace rbcast::cli {

namespace {

constexpr std::size_t kHelpWidth = 79;  // wrap column of --help
constexpr std::size_t kMaxColumn = 24;  // where help text starts, at most

// "  LEFT   text..." with `text` word-wrapped from `column`; a LEFT too
// wide for the column gets a line of its own.
void print_row(std::ostream& out, std::size_t column, const std::string& left,
               const std::string& text) {
  std::string line = "  " + left;
  if (line.size() + 1 > column) {
    out << line << "\n";
    line.clear();
  }
  line.resize(column, ' ');
  std::istringstream words(text);
  std::string word;
  while (words >> word) {
    if (line.size() > column && line.size() + 1 + word.size() > kHelpWidth) {
      out << line << "\n";
      line.assign(column, ' ');
    }
    if (line.size() > column) line += ' ';
    line += word;
  }
  out << line << "\n";
}

}  // namespace

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Flags& Flags::text(std::string block) {
  declare("", "", std::move(block));
  return *this;
}

Flags& Flags::add(std::string name, bool* dest, std::string help) {
  declare(std::move(name), "", std::move(help)).set = [dest](std::string_view) {
    *dest = true;
    return std::string();
  };
  return *this;
}

Flags& Flags::positional(std::string metavar, std::vector<std::string>* dest,
                         std::string help, std::size_t max) {
  declare("", std::move(metavar), std::move(help)).set =
      [dest, max](std::string_view text) -> std::string {
    if (dest->size() >= max) {
      return "unexpected argument '" + std::string(text) + "'";
    }
    dest->emplace_back(text);
    return "";
  };
  return *this;
}

Flags::Entry& Flags::declare(std::string name, std::string metavar,
                             std::string help, const std::string& constraint,
                             const std::string& default_text) {
  std::string about = constraint;
  if (!default_text.empty()) {
    about += (about.empty() ? "default " : ", default ") + default_text;
  }
  if (!about.empty()) help += " (" + about + ")";
  return entries_.emplace_back(
      Entry{std::move(name), std::move(metavar), std::move(help), {}});
}

std::optional<int> Flags::parse(int argc, const char* const* argv,
                                std::ostream& out, std::ostream& err) const {
  const auto fail = [&](const std::string& what) {
    return usage_error(what, err);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(out);
      return 0;
    }
    // Flags match by name; anything else goes to the positional entry.
    const bool positional = arg.empty() || arg[0] != '-';
    const auto entry =
        std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return positional ? e.name.empty() && !e.metavar.empty()
                            : e.name == arg;
        });
    if (entry == entries_.end()) {
      return fail(positional ? "unexpected argument '" + arg + "'"
                             : "unknown flag " + arg);
    }
    std::string_view value = arg;
    if (!positional && !entry->metavar.empty()) {
      if (i + 1 >= argc) return fail(arg + " needs a value " + entry->metavar);
      value = argv[++i];
    }
    if (const std::string why = entry->set(value); !why.empty()) {
      return fail(positional ? why : arg + ": " + why);
    }
  }
  return std::nullopt;
}

int Flags::usage_error(const std::string& what, std::ostream& err) const {
  err << program_ << ": " << what << " (try --help)\n";
  return 2;
}

void Flags::print_help(std::ostream& out) const {
  const auto is_text = [](const Entry& e) {
    return e.name.empty() && e.metavar.empty();
  };
  const auto left = [](const Entry& e) {
    return e.name.empty() || e.metavar.empty() ? e.name + e.metavar
                                               : e.name + " " + e.metavar;
  };
  std::size_t widest = std::string_view("--help").size();
  for (const Entry& e : entries_) widest = std::max(widest, left(e).size());
  const std::size_t column = std::min(widest + 4, kMaxColumn);
  // --help is listed after the last row, before any closing text.
  const auto last_row =
      std::find_if(entries_.rbegin(), entries_.rend(),
                   [&](const Entry& e) { return !is_text(e); })
          .base();

  out << program_ << " — " << summary_ << "\n\n";
  for (auto e = entries_.begin(); e != entries_.end(); ++e) {
    if (e == last_row) print_row(out, column, "--help", "this text");
    if (is_text(*e)) {
      out << e->help << (e->help.ends_with('\n') ? "" : "\n");
    } else {
      print_row(out, column, left(*e), e->help);
    }
  }
  if (last_row == entries_.end()) print_row(out, column, "--help", "this text");
}

}  // namespace rbcast::cli
