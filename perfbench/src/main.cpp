// rbcast_perfbench — runs one benchmark workload in this process and prints
// its metrics. perfbench/run.py builds it and drives it, one process per
// workload run; see perfbench/README.md.
//
//   rbcast_perfbench --workload NAME --seed N --seconds T [--trace 0|1]
//                    [--horizon-scale X] [--single 0|1] [--spans-out FILE]
//
// Output: human-readable lines, then as the last line one JSON object with
// "correct", "attempted", "failed", "errors", "e2e" and "layer".
// Exit 0 when the run's correctness checks pass, 1 when they fail, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const perfbench::RunResult& r) {
  for (const std::string& line : r.info) std::cout << line << "\n";
  for (const auto& m : r.e2e) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit;
    if (m.samples != 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& e : r.errors) std::cout << "CHECK FAILED: " << e << "\n";

  std::string json = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    json += (i == 0 ? "" : ",") + json_string(r.errors[i]);
  }
  json += "],\"e2e\":{";
  for (std::size_t i = 0; i < r.e2e.size(); ++i) {
    const auto& m = r.e2e[i];
    json += (i == 0 ? "" : ",") + json_string(m.name) +
            ":{\"value\":" + number(m.value) + ",\"unit\":" +
            json_string(m.unit) + ",\"samples\":" +
            std::to_string(m.samples) + "}";
  }
  json += "},\"layer\":{";
  bool first = true;
  for (const auto& [name, unit] : perfbench::layer_metric_units()) {
    json += (first ? "" : ",") + json_string(name) +
            ":{\"value\":" + number(r.layer.at(name)) + ",\"unit\":" +
            json_string(unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--horizon-scale") {
      options.horizon_scale = std::atof(value);
    } else if (arg == "--single") {
      options.single = std::string(value) == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (options.trace) options.single = true;
  if (options.workload.empty() || options.seconds <= 0 ||
      options.horizon_scale <= 0) {
    std::cerr << "usage: rbcast_perfbench --workload NAME --seed N "
                 "--seconds T [--trace 0|1] [--horizon-scale X] "
                 "[--single 0|1] [--spans-out FILE]\n";
    return 2;
  }

  perfbench::RunResult result;
  try {
    result = options.workload == "udp32_loopback"
                 ? perfbench::run_udp(options)
                 : perfbench::run_des(options);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    result.fail(std::string("run aborted: ") + e.what());
  }
  print(result);
  return result.correct ? 0 : 1;
}
