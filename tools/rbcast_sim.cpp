// rbcast_sim — command-line scenario runner.
//
// Builds a clustered WAN, runs either the paper's protocol or the basic
// baseline over a message stream with optional faults, and reports
// delivery, latency, cost and convergence results — as a table or as CSV
// for scripting.
//
// Examples:
//   rbcast_sim --clusters 4 --hosts 3 --messages 50
//   rbcast_sim --protocol basic --loss 0.1 --messages 30
//   rbcast_sim --clusters 3 --shape line --partition-at 10 --csv
//              --partition-heal 40 --messages 60
//   rbcast_sim --flap --messages 100 --seed 7 --verbose
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli/flags.h"
#include "rbcast.h"

using namespace rbcast;

namespace {

struct CliOptions {
  int clusters = 3;
  int hosts = 3;
  topo::TrunkShape shape = topo::TrunkShape::kRing;
  bool arpanet = false;
  harness::ProtocolKind kind = harness::ProtocolKind::kPaper;
  int messages = 30;
  int interval_ms = 500;
  harness::ArrivalProcess arrivals = harness::ArrivalProcess::kUniform;
  int burst_size = 5;
  double loss = 0.0;
  double duplication = 0.0;
  std::uint64_t seed = 1;
  std::optional<double> partition_at;    // seconds
  std::optional<double> partition_heal;  // seconds
  bool flap = false;
  double deadline_s = 600.0;
  bool csv = false;
  bool verbose = false;
  std::string dot_prefix;  // write <prefix>.topology.dot / .parents.dot
  std::string csv_prefix;  // write <prefix>.counters.csv / .latencies.csv
  std::string trace_out;     // JSONL trace file (rbcast_trace reads it)
  std::string chrome_trace;  // Chrome/Perfetto trace_event JSON file
  int sample_period_ms = 1000;  // metric time-series period when tracing
  int batch_flush_ms = 0;       // 0 = coalescing data plane off
  std::string chaos_spec;       // replay a chaos spec instead (rbcast_chaos)
  std::uint64_t chaos_seed = 1;
};

// Deterministic replay of a chaos reproducer (rbcast_chaos repro.json):
// re-runs the spec under the invariant monitor and reports the violations.
// Exit 0 = clean, 1 = violations reproduced.
int run_chaos_replay(const CliOptions& cli) {
  harness::ChaosSpec spec;
  try {
    spec = harness::load_chaos_spec(cli.chaos_spec);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::ofstream trace_file;
  std::unique_ptr<trace::JsonlSink> jsonl_sink;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open " << cli.trace_out << " for writing\n";
      return 2;
    }
    jsonl_sink = std::make_unique<trace::JsonlSink>(trace_file);
  }
  const harness::ChaosRunResult result =
      harness::run_chaos(spec, cli.chaos_seed, jsonl_sink.get());
  if (jsonl_sink != nullptr) {
    jsonl_sink->close();
    std::cerr << "wrote " << cli.trace_out << "\n";
  }
  std::cout << (cli.csv ? "# " : "") << result.manifest
            << " chaos_spec=" << cli.chaos_spec
            << " chaos_seed=" << cli.chaos_seed << "\n";
  std::cout << "delivered everywhere: " << (result.delivered_all ? "yes" : "NO")
            << "  completion: " << result.completion_s << "s\n";
  if (!result.violated()) {
    std::cout << "invariants: all hold\n";
    return 0;
  }
  std::cout << "invariant violations:\n";
  for (const auto& v : result.violations) {
    std::cout << "  [" << v.invariant << "] t=" << sim::to_seconds(v.at)
              << "s: " << v.description << "\n";
  }
  return 1;
}

int run(const CliOptions& cli) {
  topo::Topology topology;
  std::vector<LinkId> trunks;
  if (cli.arpanet) {
    topo::Arpanet arpa = topo::make_arpanet();
    for (LinkId trunk : arpa.trunks) {
      auto params = arpa.topology.link(trunk).params;
      params.loss_probability = cli.loss;
      params.duplication_probability = cli.duplication;
      arpa.topology.set_link_params(trunk, params);
    }
    topology = std::move(arpa.topology);
    trunks = std::move(arpa.trunks);
  } else {
    topo::ClusteredWanOptions wan_options;
    wan_options.clusters = cli.clusters;
    wan_options.hosts_per_cluster = cli.hosts;
    wan_options.shape = cli.shape;
    wan_options.expensive.loss_probability = cli.loss;
    wan_options.expensive.duplication_probability = cli.duplication;
    wan_options.cheap.loss_probability = cli.loss / 5.0;
    wan_options.seed = cli.seed;
    topo::Wan wan = make_clustered_wan(wan_options);
    topology = std::move(wan.topology);
    trunks = std::move(wan.trunks);
  }

  harness::ScenarioOptions options;
  options.protocol_kind = cli.kind;
  options.seed = cli.seed;
  options.protocol.batch_flush_delay = sim::milliseconds(cli.batch_flush_ms);
  harness::Experiment e(std::move(topology), options);

  // The reproduction line: everything needed to rerun this exact run.
  // Also the first record of every trace file.
  std::cout << (cli.csv ? "# " : "") << trace::manifest_line(e.manifest())
            << "\n";

  // --- trace export --------------------------------------------------------

  std::ofstream trace_file;
  std::ofstream chrome_file;
  std::unique_ptr<trace::JsonlSink> jsonl_sink;
  std::unique_ptr<trace::ChromeTraceSink> chrome_sink;
  trace::MultiSink trace_fanout;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open " << cli.trace_out << " for writing\n";
      return 2;
    }
    jsonl_sink = std::make_unique<trace::JsonlSink>(trace_file);
    trace_fanout.add(jsonl_sink.get());
  }
  if (!cli.chrome_trace.empty()) {
    chrome_file.open(cli.chrome_trace);
    if (!chrome_file) {
      std::cerr << "cannot open " << cli.chrome_trace << " for writing\n";
      return 2;
    }
    chrome_sink = std::make_unique<trace::ChromeTraceSink>(chrome_file);
    trace_fanout.add(chrome_sink.get());
  }
  if (jsonl_sink != nullptr || chrome_sink != nullptr) {
    e.set_trace_sink(&trace_fanout);
    if (cli.sample_period_ms > 0) {
      e.enable_metric_sampling(sim::milliseconds(cli.sample_period_ms));
    }
  }

  if (cli.partition_at && !trunks.empty()) {
    e.faults().partition_window({trunks[0]},
                                sim::from_seconds(*cli.partition_at),
                                sim::from_seconds(*cli.partition_heal));
  }
  if (cli.flap && !trunks.empty()) {
    e.faults().flapping(trunks, sim::seconds(10), sim::seconds(5),
                        sim::from_seconds(cli.deadline_s), e.rngs());
  }

  e.start();
  harness::WorkloadOptions workload;
  workload.process = cli.arrivals;
  workload.messages = cli.messages;
  workload.interval = sim::milliseconds(cli.interval_ms);
  workload.burst_size = cli.burst_size;
  workload.first_at = sim::seconds(1);
  schedule_workload(e, workload, util::Rng(cli.seed));
  const sim::TimePoint done =
      e.run_until_delivered(sim::from_seconds(cli.deadline_s));

  // Close out the trace: one final metric sample so every series covers
  // the full run, then flush/finalize the backends.
  if (e.sampler() != nullptr) e.sampler()->sample_now();
  trace_fanout.close();
  if (!cli.trace_out.empty()) {
    std::cerr << "wrote " << cli.trace_out << "\n";
  }
  if (!cli.chrome_trace.empty()) {
    std::cerr << "wrote " << cli.chrome_trace
              << " (load in ui.perfetto.dev)\n";
  }

  // --- report --------------------------------------------------------------

  const auto& metrics = e.metrics();
  const auto latency = metrics.all_latencies();
  const bool complete = e.all_delivered();

  util::Table summary({"metric", "value"});
  summary.row().cell("network").cell(e.topology().describe());
  summary.row().cell("protocol").cell(
      cli.kind == harness::ProtocolKind::kPaper
          ? "paper"
          : (cli.kind == harness::ProtocolKind::kBasic ? "basic" : "gossip"));
  summary.row().cell("messages").cell(
      static_cast<std::int64_t>(cli.messages));
  summary.row().cell("delivered everywhere").cell(complete ? "yes" : "NO");
  summary.row().cell("completion time (s)").cell(sim::to_seconds(done), 2);
  summary.row().cell("mean delay (s)").cell(latency.mean(), 4);
  summary.row().cell("p95 delay (s)").cell(latency.quantile(0.95), 4);
  summary.row().cell("inter-cluster data sends").cell(
      metrics.intercluster_data_sends());
  summary.row().cell("inter-cluster control sends").cell(
      metrics.intercluster_control_sends());
  summary.row().cell("total sends").cell(
      metrics.counter_prefix_sum("send.") -
      metrics.counter_prefix_sum("send.intercluster."));
  summary.row().cell("drops").cell(metrics.counter_prefix_sum("drop."));
  const LinkId hot = metrics.busiest_trunk();
  if (hot.valid()) {
    std::ostringstream hot_desc;
    hot_desc << hot << " at "
             << static_cast<int>(metrics.link_utilization(hot) * 100)
             << "% busy";
    summary.row().cell("busiest trunk").cell(hot_desc.str());
  }

  if (cli.kind == harness::ProtocolKind::kPaper) {
    const auto report = e.convergence();
    summary.row().cell("tree rooted at source").cell(
        report.tree_rooted_at_source ? "yes" : "no");
    summary.row().cell("induces cluster tree").cell(
        report.induces_cluster_tree ? "yes" : "no");
    summary.row().cell("cluster leaders").cell(
        static_cast<std::int64_t>(report.leader_count));
  }

  if (cli.csv) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout);
  }

  if (!cli.csv_prefix.empty()) {
    std::ofstream counters_out(cli.csv_prefix + ".counters.csv");
    metrics.write_counters_csv(counters_out);
    std::ofstream latencies_out(cli.csv_prefix + ".latencies.csv");
    metrics.write_latencies_csv(latencies_out);
    std::cerr << "wrote " << cli.csv_prefix << ".counters.csv and "
              << cli.csv_prefix << ".latencies.csv\n";
  }

  if (!cli.dot_prefix.empty()) {
    std::ofstream topo_out(cli.dot_prefix + ".topology.dot");
    trace::write_topology_dot(topo_out, e.network());
    std::cerr << "wrote " << cli.dot_prefix << ".topology.dot\n";
    if (cli.kind == harness::ProtocolKind::kPaper) {
      std::ofstream parents_out(cli.dot_prefix + ".parents.dot");
      trace::write_parent_graph_dot(parents_out, e.host_views(),
                                    e.network(), e.source());
      std::cerr << "wrote " << cli.dot_prefix << ".parents.dot\n";
    }
  }
  return complete ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using topo::TrunkShape;
  using harness::ArrivalProcess;
  using harness::ProtocolKind;
  CliOptions o;
  cli::Flags flags("rbcast_sim", "reliable broadcast scenario runner");
  flags.text("topology:");
  flags.add("--clusters", "N", &o.clusters, "number of clusters", {.min = 1});
  flags.add("--hosts", "N", &o.hosts, "hosts per cluster", {.min = 1});
  flags.choice("--shape", "S", &o.shape,
               {{"line", TrunkShape::kLine}, {"ring", TrunkShape::kRing},
                {"star", TrunkShape::kStar},
                {"random", TrunkShape::kRandomTree}},
               "trunk shape");
  flags.add("--arpanet", &o.arpanet,
            "use the stylized c.1980 ARPANET map instead");
  flags.text("network faults:");
  flags.add("--loss", "P", &o.loss, "trunk loss probability",
            {.min = 0, .below = 1});
  flags.add("--dup", "P", &o.duplication, "trunk duplication probability",
            {.min = 0, .max = 1});
  flags.add("--partition-at", "T", &o.partition_at, "cut trunk 0 at T seconds",
            {.min = 0});
  flags.add("--partition-heal", "T", &o.partition_heal,
            "repair it at T seconds", {.min = 0});
  flags.add("--flap", &o.flap,
            "all trunks flap (up ~10s / down ~5s) while the stream runs");
  flags.text("workload:");
  flags.choice("--protocol", "P", &o.kind,
               {{"paper", ProtocolKind::kPaper},
                {"basic", ProtocolKind::kBasic},
                {"gossip", ProtocolKind::kGossip}},
               "protocol");
  flags.add("--messages", "N", &o.messages, "stream length", {.min = 0});
  flags.add("--interval-ms", "N", &o.interval_ms,
            "spacing between broadcasts", {.min = 1});
  flags.choice("--arrivals", "A", &o.arrivals,
               {{"uniform", ArrivalProcess::kUniform},
                {"poisson", ArrivalProcess::kPoisson},
                {"bursty", ArrivalProcess::kBursty},
                {"sustained", ArrivalProcess::kSustained}},
               "arrival process");
  flags.add("--burst", "N", &o.burst_size, "messages per burst for bursty",
            {.min = 1});
  flags.text("run control:");
  flags.add("--dot", "PREFIX", &o.dot_prefix,
            "write PREFIX.topology.dot and PREFIX.parents.dot (Graphviz)");
  flags.add("--metrics-csv", "P", &o.csv_prefix,
            "write P.counters.csv and P.latencies.csv");
  flags.add("--trace-out", "F", &o.trace_out,
            "stream a JSONL trace of the run to F (analyze with rbcast_trace)");
  flags.add("--chrome-trace", "F", &o.chrome_trace,
            "also write a Chrome/Perfetto trace_event file");
  flags.add("--batch-flush-ms", "N", &o.batch_flush_ms,
            "coalesce same-destination frames for up to N ms, the batched "
            "data plane (0 = off); its counters join the trace's \"registry\" "
            "metric records",
            {.min = 0});
  flags.add("--sample-period-ms", "N", &o.sample_period_ms,
            "metric time-series period when tracing; 0 disables sampling",
            {.min = 0});
  flags.add("--seed", "N", &o.seed, "experiment seed");
  flags.add("--deadline", "T", &o.deadline_s, "give up after T virtual seconds",
            {.min = 0});
  flags.add("--chaos-spec", "F", &o.chaos_spec,
            "replay a chaos spec/reproducer under the invariant monitor, "
            "ignoring topology/workload flags; exit 1 if violations reproduce");
  flags.add("--chaos-seed", "N", &o.chaos_seed, "seed for --chaos-spec");
  flags.add("--csv", &o.csv, "machine-readable output");
  flags.add("--verbose", &o.verbose, "protocol event log on stderr");
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (o.partition_at.has_value() != o.partition_heal.has_value()) {
    return flags.usage_error("--partition-at and --partition-heal go together");
  }
  if (o.verbose) util::Logger::instance().set_level(util::LogLevel::kInfo);
  try {
    return o.chaos_spec.empty() ? run(o) : run_chaos_replay(o);
  } catch (const std::invalid_argument& e) {
    return flags.usage_error(e.what());
  }
}
