// Shared plumbing for the experiment benches.
//
// Every bench regenerates one row/figure of the paper's evaluation: it
// builds a scenario through harness::Experiment, runs a warm-up phase (the
// protocol's tree must form before steady-state numbers mean anything),
// resets the metrics, streams a measured workload, and prints a table.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "rbcast.h"

namespace rbcast::bench {

// Steady-state protocol parameters used across benches (one place so the
// experiments are comparable). Deliberately mid-range: Section 6 points
// out these are the cost/reliability tuning knobs; bench_tradeoff sweeps
// them explicitly.
inline core::Config default_protocol_config() {
  core::Config c;
  c.attach_period = sim::seconds(1);
  c.info_period_intra = sim::milliseconds(500);
  c.info_period_inter = sim::seconds(2);
  c.gapfill_period_neighbor = sim::seconds(1);
  c.gapfill_period_far = sim::seconds(4);
  c.parent_timeout = sim::seconds(6);
  // Must comfortably exceed the worst host-to-host round trip (slow trunks
  // plus queueing), or a host behind a slow link livelocks cycling through
  // candidates whose accepts keep arriving "late".
  c.attach_ack_timeout = sim::seconds(2);
  c.data_bytes = 256;
  return c;
}

// Section 6: the exchange frequencies "can be tuned according to specific
// cost-reliability requirements". A real deployment must keep the
// aggregate control traffic inside the expensive-trunk capacity, which
// grows with the host count (INFO exchange is all-pairs). This helper
// applies that tuning: beyond 16 hosts, the inter-cluster periods stretch
// proportionally so control load per trunk stays roughly constant.
inline core::Config scaled_protocol_config(std::size_t host_count) {
  core::Config c = default_protocol_config();
  const double factor =
      std::max(1.0, static_cast<double>(host_count) / 16.0);
  auto scale = [&](sim::Duration d) {
    return static_cast<sim::Duration>(static_cast<double>(d) * factor);
  };
  c.info_period_inter = scale(c.info_period_inter);
  c.gapfill_period_far = scale(c.gapfill_period_far);
  return c;
}

inline core::BasicConfig default_basic_config() {
  core::BasicConfig c;
  c.retransmit_period = sim::seconds(2);
  return c;
}

// Runs one warm-up broadcast and lets the host parent graph converge.
inline void warm_up(harness::Experiment& e,
                    sim::Duration settle = sim::seconds(30)) {
  e.start();
  e.broadcast();
  e.run_for(settle);
  e.metrics().reset();
}

// Streams `count` messages `interval` apart, then runs until every host
// has everything (or the deadline passes). Returns the virtual completion
// time measured from the start of the stream.
inline double stream_and_finish(harness::Experiment& e, int count,
                                sim::Duration interval,
                                sim::Duration deadline = sim::seconds(600)) {
  const sim::TimePoint begin = e.simulator().now();
  e.broadcast_stream(count, interval, begin + sim::milliseconds(1));
  const sim::TimePoint done =
      e.run_until_delivered(begin + deadline, sim::milliseconds(200));
  return sim::to_seconds(done - begin);
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

// One Google-benchmark JSON row (the shape tools/bench_compare.py gates
// against a committed BENCH_*.json), preceded by ",\n" unless `first`.
inline void emit_json_row(std::ostream& os, bool& first,
                          const std::string& name, double value,
                          const char* unit) {
  if (!first) os << ",\n";
  first = false;
  os << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\", "
     << "\"iterations\": 1, \"real_time\": " << value << ", \"cpu_time\": "
     << value << ", \"time_unit\": \"" << unit << "\"}";
}

// The --json document of a virtual-time bench. Its "times" are
// deterministic metrics of seeded simulations, identical on every
// machine, so the gate threshold against the baseline can be tight.
inline void print_virtual_time_json(const std::string& rows) {
  std::cout << "{\n  \"context\": {\"virtual_time\": true},\n"
            << "  \"benchmarks\": [\n" << rows << "\n  ]\n}\n";
}

}  // namespace rbcast::bench
