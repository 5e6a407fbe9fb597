// json_check FILE...: parses each file with util::parse_json and exits 1
// naming the first one that is not exactly one valid JSON document. The
// trace_cli_smoke ctest runs it on rbcast_sim's Chrome export.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::cerr << "json_check: cannot read " << argv[i] << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      (void)rbcast::util::parse_json(text.str(), argv[i]);
    } catch (const std::invalid_argument& e) {
      std::cerr << "json_check: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
