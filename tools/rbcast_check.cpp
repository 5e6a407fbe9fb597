// rbcast_check — bounded model checking of the protocol rules.
//
// Explores copies of the shipping protocol automaton (core::HostProtocol,
// driven by src/model) under an adversarial network — every delivery
// order, loss and duplication at any point, optionally forged DATA — and
// verifies the safety invariants (exactly-once, integrity, no invention,
// INFO consistency, sane parents) in every reachable state.
//
// Examples:
//   rbcast_check                               # default: 3 hosts, BFS
//   rbcast_check --hosts 2 --depth 16          # deeper, smaller system
//   rbcast_check --clusters 0,0,1 --walks 5000 # random-walk mode
//   rbcast_check --forge noauth --walks 500    # forged relays break I2
//   rbcast_check --forge auth --broadcasts 1 --depth 8  # ... unless signed
//   rbcast_check --determinism-check           # replay gate (see below)
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "rbcast.h"

using namespace rbcast;

namespace {

// --- determinism self-check ---------------------------------------------
//
// The runtime half of the determinism gate (the static half is
// rbcast_lint): run the full simulator on the same topology and seed
// twice, and require bit-identical protocol event logs (via
// trace::EventLog::digest()). Any hidden nondeterminism — hash-order
// iteration, unseeded randomness, address-dependent tie-breaks — shows up
// as a digest mismatch. CI runs this under ASan/UBSan.

struct DeterminismScenario {
  std::string name;
  topo::Topology topology;
};

std::vector<DeterminismScenario> determinism_scenarios() {
  std::vector<DeterminismScenario> out;
  out.push_back({"figure-3.2", topo::make_figure_3_2().topology});
  out.push_back({"figure-4.1", topo::make_figure_4_1().topology});
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.shape = topo::TrunkShape::kRing;
  wan.seed = 7;
  out.push_back({"clustered-wan-ring-3x3", topo::make_clustered_wan(wan).topology});
  out.push_back({"single-cluster-5", topo::make_single_cluster(5).topology});
  return out;
}

std::uint64_t run_once(const topo::Topology& topology, std::uint64_t seed,
                       bool batch) {
  harness::ScenarioOptions options;
  options.source = HostId{0};
  options.seed = seed;
  if (batch) {
    // Exercise the coalescing data plane: the digests differ from the
    // unbatched ones (different wire traffic) but must still be
    // bit-identical across same-seed runs.
    options.protocol.batch_flush_delay = sim::milliseconds(5);
    options.protocol.batch_max_bytes = 1200;
  }
  harness::Experiment experiment(topology, options);
  experiment.start();
  experiment.broadcast_stream(15, sim::milliseconds(500), sim::seconds(1));
  experiment.run_for(sim::seconds(60));
  return experiment.events().digest();
}

int run_determinism_check(std::uint64_t seed, bool batch) {
  bool ok = true;
  std::cout << "determinism check: two runs per topology, seed " << seed
            << (batch ? ", batching on" : "") << "\n";
  for (DeterminismScenario& scenario : determinism_scenarios()) {
    const std::uint64_t first = run_once(scenario.topology, seed, batch);
    const std::uint64_t second = run_once(scenario.topology, seed, batch);
    const bool match = first == second;
    ok = ok && match;
    std::cout << "  " << std::left << std::setw(24) << scenario.name
              << " digest " << std::hex << std::setw(16) << first << " / "
              << std::setw(16) << second << std::dec
              << (match ? "  OK" : "  MISMATCH") << "\n";
  }
  std::cout << (ok ? "result: all event logs bit-identical\n"
                   : "result: NONDETERMINISM detected\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using Forge = model::ModelConfig::Forge;
  model::ModelConfig config;
  std::optional<std::string> clusters;  // comma-separated, one per host
  int depth = 7;
  std::uint64_t max_states = 2'000'000;
  int walks = 0;
  int liveness_walks = 0;
  int steps = 150;
  std::uint64_t seed = 1;
  bool determinism_check = false;
  bool batch = false;

  cli::Flags flags("rbcast_check",
                   "bounded verification of the broadcast protocol");
  flags.add("--hosts", "N", &config.hosts, "number of hosts", {.min = 1});
  flags.add("--clusters", "LIST", &clusters,
            "comma-separated cluster index per host (default: every host "
            "its own cluster)");
  flags.add("--broadcasts", "N", &config.max_broadcasts,
            "messages the source may generate", {.min = 0});
  flags.add("--inflight", "N", &config.max_inflight,
            "adversarial network capacity");
  flags.add("--depth", "N", &depth, "BFS depth bound", {.min = 0});
  flags.add("--max-states", "N", &max_states, "BFS state bound");
  flags.add("--walks", "N", &walks,
            "random walks to run instead of BFS; 0 runs BFS", {.min = 0});
  flags.add("--liveness", "N", &liveness_walks,
            "N fault-free fair walks; report how many reach full "
            "dissemination",
            {.min = 0});
  flags.add("--steps", "N", &steps, "steps per walk", {.min = 1});
  flags.add("--seed", "N", &seed,
            "random-walk seed, also the --determinism-check seed");
  flags.choice("--forge", "MODE", &config.forge,
               {{"none", Forge::kNone},
                {"noauth", Forge::kNoAuth},
                {"auth", Forge::kAuth}},
               "forged-DATA adversary; with auth, hosts verify source tags");
  flags.add("--determinism-check", &determinism_check,
            "run each built-in topology twice on the same seed and require "
            "identical event-log digests");
  flags.add("--batch", &batch,
            "with --determinism-check: enable transport coalescing "
            "(batch_flush_delay 5ms) in the runs");
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (determinism_check) return run_determinism_check(seed, batch);
  config.cluster_of.clear();
  if (clusters) {
    std::stringstream ss(*clusters);
    std::string part;
    while (std::getline(ss, part, ',')) {
      const std::optional<int> c = cli::parse_number<int>(part);
      if (!c) {
        return flags.usage_error("--clusters: '" + part +
                                 "' is not a valid integer");
      }
      config.cluster_of.push_back(*c);
    }
  } else {
    for (int i = 0; i < config.hosts; ++i) config.cluster_of.push_back(i);
  }
  if (config.cluster_of.size() != static_cast<std::size_t>(config.hosts)) {
    return flags.usage_error("--clusters must list exactly --hosts entries");
  }

  std::optional<model::Checker> checker;
  try {
    checker.emplace(config);
  } catch (const std::invalid_argument& e) {
    return flags.usage_error(e.what());
  }
  std::cout << "configuration: " << config.hosts << " hosts, source h0, "
            << config.max_broadcasts << " broadcasts, inflight cap "
            << config.max_inflight << "\n";

  if (liveness_walks > 0) {
    const int live_steps = steps > 150 ? steps : 400;
    std::cout << "mode: " << liveness_walks << " fair (fault-free) walks x "
              << live_steps << " steps (seed " << seed << ")\n";
    const auto live = checker->explore_liveness(liveness_walks, live_steps,
                                               seed);
    std::cout << "full dissemination reached: " << live.completed << "/"
              << live.walks << " walks";
    if (live.completed > 0) {
      std::cout << " (mean " << live.mean_steps_to_complete << " steps)";
    }
    std::cout << "\nsafety: "
              << (live.clean() ? "all invariants held" : "VIOLATION")
              << "\n";
    return live.clean() && live.completed == live.walks ? 0 : 1;
  }

  model::ExplorationReport report;
  if (walks > 0) {
    std::cout << "mode: " << walks << " random walks x " << steps
              << " steps (seed " << seed << ")\n";
    report = checker->explore_random(walks, steps, seed);
  } else {
    std::cout << "mode: exhaustive BFS, depth " << depth << ", state bound "
              << max_states << "\n";
    report = checker->explore_bfs(depth, max_states);
  }

  std::cout << "states explored:   " << report.states_explored << "\n"
            << "transitions fired: " << report.transitions_fired << "\n"
            << "bounds hit:        " << (report.truncated ? "yes" : "no")
            << "\n";
  if (report.clean()) {
    std::cout << "result: all safety invariants hold in every explored "
                 "state\n";
    return 0;
  }
  const auto& violation = report.violations.front();
  std::cout << "result: VIOLATION of " << violation.invariant << " — "
            << violation.description << "\ncounterexample ("
            << violation.trace.size() << " steps):\n";
  for (const std::string& step : violation.trace) {
    std::cout << "  " << step << "\n";
  }
  return 1;
}
