// E15 — scalability and workload-shape sweep (extension; the paper argues
// but never measures scale).
//
// Part 1: host-count sweep. The per-host control load and the delivery
// delay should grow mildly with system size (the tree distributes
// forwarding; control periods are tuned to system size exactly as
// Section 6 prescribes).
//
// Part 2: arrival-process sweep at a fixed mean rate. Bursty workloads
// stress the source's uplink; the cluster tree absorbs bursts noticeably
// better than a flat unicast fan-out would (compare E5).
//
// `bench_scale --json` prints the wall seconds of every sweep row (and of
// the whole run) in google-benchmark JSON for tools/bench_compare.py, with
// an FNV-1a digest of both virtual-time tables as context.table_digest:
// the wall times gate speed loosely against BENCH_scale.json, the digest
// pins the simulated results exactly.
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "support/common.h"

namespace rbcast::bench {
namespace {

// Wall seconds per named sweep row, in run order.
struct WallTimes {
  std::vector<std::pair<std::string, double>> rows;

  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    rows.emplace_back(name, wall.count());
  }
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t tree_depth(harness::Experiment& e) {
  std::size_t depth = 0;
  for (HostId h : e.topology().host_ids()) {
    std::size_t steps = 0;
    HostId cursor = h;
    while (e.host(cursor).parent().valid() && steps <= e.host_count()) {
      cursor = e.host(cursor).parent();
      ++steps;
    }
    depth = std::max(depth, steps);
  }
  return depth;
}

// One row of the host-count sweep: `clusters` x 4 hosts on a ring.
void scale_row(int clusters, util::Table& table) {
  const int hosts = clusters * 4;
  topo::ClusteredWanOptions wan;
  wan.clusters = clusters;
  wan.hosts_per_cluster = 4;
  wan.shape = topo::TrunkShape::kRing;

  harness::ScenarioOptions options;
  options.protocol =
      scaled_protocol_config(static_cast<std::size_t>(hosts));
  options.seed = 15;

  harness::Experiment e(make_clustered_wan(wan).topology, options);
  warm_up(e, sim::seconds(30 + 2 * hosts));

  const sim::TimePoint t0 = e.simulator().now();
  const double completion =
      stream_and_finish(e, 40, sim::milliseconds(500));
  const double window =
      sim::to_seconds(e.simulator().now() - t0);

  const auto& m = e.metrics();
  const double data = static_cast<double>(m.counter("send.data") +
                                          m.counter("send.gapfill"));
  const double control =
      static_cast<double>(m.counter_prefix_sum("send.")) - data -
      static_cast<double>(m.counter_prefix_sum("send.intercluster."));
  const auto latency = e.metrics().all_latencies();
  table.row()
      .cell(hosts)
      .cell(completion, 1)
      .cell(latency.mean(), 3)
      .cell(latency.quantile(0.95), 3)
      .cell(control / window / hosts, 2)
      .cell(static_cast<std::uint64_t>(tree_depth(e)));
}

void sweep_scale(std::ostream& os, WallTimes& wall) {
  os << "\n--- host-count sweep (clusters x 4 hosts, ring) ---\n";
  util::Table table({"hosts", "completion s", "mean delay s", "p95 delay s",
                     "control sends/s/host", "tree depth"});
  for (int clusters : {2, 4, 8, 16, 24}) {
    wall.time("scale/hosts=" + std::to_string(clusters * 4) + "/wall",
              [&] { scale_row(clusters, table); });
  }
  table.print(os);
}

// One row of the arrival-process sweep.
void workload_row(harness::ArrivalProcess process, util::Table& table) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 4;
  const auto built = make_clustered_wan(wan);
  const ServerId source_server = built.topology.host(HostId{0}).server;

  harness::ScenarioOptions options;
  options.protocol = scaled_protocol_config(16);
  options.protocol.data_bytes = 1024;
  options.seed = 16;

  harness::Experiment e(built.topology, options);
  warm_up(e);

  harness::WorkloadOptions w;
  w.process = process;
  w.messages = 60;
  w.interval = process == harness::ArrivalProcess::kBursty
                   ? sim::milliseconds(2500)  // 5-msg bursts every 2.5 s
                   : sim::milliseconds(500);
  w.burst_size = 5;
  w.first_at = e.simulator().now() + sim::milliseconds(1);
  const sim::TimePoint t0 = e.simulator().now();
  schedule_workload(e, w, util::Rng(16));
  const sim::TimePoint done =
      e.run_until_delivered(t0 + sim::seconds(600));

  const auto latency = e.metrics().all_latencies();
  table.row()
      .cell(harness::to_string(process))
      .cell(sim::to_seconds(done - t0), 1)
      .cell(latency.mean(), 3)
      .cell(latency.quantile(0.95), 3)
      .cell(e.metrics().max_queue_backlog_seconds(source_server), 3);
}

void sweep_workload(std::ostream& os, WallTimes& wall) {
  os << "\n--- arrival-process sweep (4x4 WAN, 60 msgs, mean 0.5 "
        "s spacing) ---\n";
  util::Table table({"arrivals", "completion s", "mean delay s",
                     "p95 delay s", "max source backlog s"});
  for (auto process :
       {harness::ArrivalProcess::kUniform, harness::ArrivalProcess::kPoisson,
        harness::ArrivalProcess::kBursty}) {
    wall.time(std::string("scale/arrivals=") + harness::to_string(process) +
                  "/wall",
              [&] { workload_row(process, table); });
  }
  table.print(os);
}

void print_json(const WallTimes& wall, double total, std::uint64_t digest) {
  std::cout << "{\n  \"context\": {\"virtual_time\": false, "
            << "\"table_digest\": \"" << std::hex << std::setw(16)
            << std::setfill('0') << digest << std::dec << std::setfill(' ')
            << "\"},\n  \"benchmarks\": [\n";
  bool first = true;
  for (const auto& [name, seconds] : wall.rows) {
    emit_json_row(std::cout, first, name, seconds, "s");
  }
  emit_json_row(std::cout, first, "scale/total/wall", total, "s");
  std::cout << "\n  ]\n}\n";
}

}  // namespace
}  // namespace rbcast::bench

int main(int argc, char** argv) {
  using namespace rbcast::bench;
  const bool json = argc > 1 && std::string(argv[1]) == "--json";
  if (!json) {
    print_header("E15 bench_scale",
                 "Scalability and workload-shape sweeps (extension beyond "
                 "the paper's evaluation)");
  }
  WallTimes wall;
  std::ostringstream tables;
  const auto t0 = std::chrono::steady_clock::now();
  sweep_scale(tables, wall);
  sweep_workload(tables, wall);
  const std::chrono::duration<double> total =
      std::chrono::steady_clock::now() - t0;
  if (json) {
    print_json(wall, total.count(), fnv1a(tables.str()));
  } else {
    std::cout << tables.str();
  }
  return 0;
}
