// rbcast_lint — repo-specific determinism lint.
//
// Walks src/ under the given repo root and enforces the rules documented in
// tools/lint/lint_engine.h (no unseeded randomness, no hash-order
// iteration in protocol layers, no direct output, RBCAST_ASSERT only,
// #pragma once in every header). Runs as a ctest; exits nonzero on any
// finding so the gate fails closed.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "lint/lint_engine.h"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  rbcast::cli::Flags flags("rbcast_lint", "repo-specific determinism lint");
  flags.text("usage: rbcast_lint [REPO]\n\n");
  flags.positional("REPO", &roots, "repo root (default: current directory)",
                   1);
  flags.text("\nexit status: 0 clean, 1 findings, 2 no src/ under REPO\n");
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  const fs::path root =
      roots.empty() ? fs::current_path() : fs::path(roots[0]);
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::cerr << "rbcast_lint: no src/ under " << root << "\n";
    return 2;
  }

  // Deterministic file order (directory iteration order is OS-dependent —
  // the lint practices what it preaches).
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && lintable(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: harvest identifiers declared with unordered container types so
  // the unordered-range-for rule can flag their iteration anywhere.
  std::set<std::string> unordered_ids;
  std::vector<std::pair<std::string, std::string>> sources;  // rel, content
  sources.reserve(files.size());
  for (const fs::path& p : files) {
    std::string content = read_file(p);
    for (std::string& id : rbcast::lint::unordered_identifiers(content)) {
      unordered_ids.insert(std::move(id));
    }
    sources.emplace_back(fs::relative(p, root).generic_string(),
                         std::move(content));
  }

  // Pass 2: apply the rules.
  std::size_t total = 0;
  for (const auto& [rel, content] : sources) {
    for (const rbcast::lint::Finding& f :
         rbcast::lint::lint_file(rel, content, unordered_ids)) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
      ++total;
    }
  }

  if (total > 0) {
    std::cout << "rbcast_lint: " << total << " finding(s) in "
              << sources.size() << " file(s)\n";
    return 1;
  }
  std::cout << "rbcast_lint: " << sources.size() << " files clean\n";
  return 0;
}
