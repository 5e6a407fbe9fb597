#include "harness/chaos.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/experiment.h"
#include "topo/generators.h"
#include "util/assert.h"
#include "util/json.h"

namespace rbcast::harness {
namespace {

// Chaos specs nest objects and arrays, so they use the shared
// recursive-descent reader (util/json.h); "chaos spec" contexts keep the
// error messages this file always produced.

using util::Json;

constexpr const char* kJsonContext = "chaos spec";

double num_or(const Json& obj, const char* key, double fallback) {
  return util::json_num_or(obj, key, fallback, kJsonContext);
}

int int_or(const Json& obj, const char* key, int fallback) {
  return util::json_int_or(obj, key, fallback, kJsonContext);
}

bool bool_or(const Json& obj, const char* key, bool fallback) {
  return util::json_bool_or(obj, key, fallback, kJsonContext);
}

std::string str_or(const Json& obj, const char* key, std::string fallback) {
  return util::json_str_or(obj, key, std::move(fallback), kJsonContext);
}

// --- JSON writing ----------------------------------------------------------

// The shortest text that reads back as exactly `v`, so
// parse_chaos_spec(to_json(s)) replays s to the microsecond.
std::string fmt(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

topo::TrunkShape shape_from_string(const std::string& name) {
  if (name == "line") return topo::TrunkShape::kLine;
  if (name == "ring") return topo::TrunkShape::kRing;
  if (name == "star") return topo::TrunkShape::kStar;
  if (name == "random_tree") return topo::TrunkShape::kRandomTree;
  throw std::invalid_argument("chaos spec: unknown trunk shape '" + name +
                              "'");
}

std::size_t mod_index(int target, std::size_t n) {
  RBCAST_ASSERT(n > 0);
  const auto m = static_cast<int>(n);
  return static_cast<std::size_t>(((target % m) + m) % m);
}

bool is_byzantine_event(const std::string& type) {
  return type == "byz_equivocate" || type == "byz_corrupt" ||
         type == "byz_lie_info" || type == "byz_offer";
}

void validate_event_type(const std::string& type) {
  if (type != "outage" && type != "crash" && type != "partition" &&
      !is_byzantine_event(type)) {
    throw std::invalid_argument("chaos spec: unknown event type '" + type +
                                "'");
  }
}

ByzantineBehavior::Kind byzantine_kind(const std::string& type) {
  if (type == "byz_equivocate") return ByzantineBehavior::Kind::kEquivocate;
  if (type == "byz_corrupt") return ByzantineBehavior::Kind::kCorrupt;
  if (type == "byz_lie_info") return ByzantineBehavior::Kind::kLieInfo;
  RBCAST_ASSERT(type == "byz_offer");
  return ByzantineBehavior::Kind::kBogusOffer;
}

}  // namespace

// The (invariant, category) pair a shrink candidate must reproduce. The
// category keeps failure classes apart: stripping every byz_* event from a
// Byzantine repro turns its I2/I3 violations into uncategorized ones, so
// such a candidate is correctly rejected instead of conflating the repro
// with an ordinary crash/partition failure.
std::string violation_signature(const InvariantViolation& v) {
  return v.category.empty() ? v.invariant : v.invariant + "/" + v.category;
}

std::string to_json(const ChaosSpec& spec) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": 1,\n";
  os << "  \"topology\": {\"clusters\": " << spec.clusters
     << ", \"hosts_per_cluster\": " << spec.hosts_per_cluster
     << ", \"shape\": " << util::json_string(spec.shape) << "},\n";
  os << "  \"workload\": {\"broadcasts\": " << spec.broadcasts
     << ", \"interval_s\": " << fmt(spec.interval_s)
     << ", \"first_at_s\": " << fmt(spec.first_at_s) << "},\n";
  os << "  \"horizon\": {\"fault_end_s\": " << fmt(spec.fault_end_s)
     << ", \"orphan_limit_s\": " << fmt(spec.orphan_limit_s)
     << ", \"converge_deadline_s\": " << fmt(spec.converge_deadline_s)
     << ", \"horizon_s\": " << fmt(spec.horizon_s) << "},\n";
  os << "  \"generate\": {\"outages\": " << spec.outages
     << ", \"crashes\": " << spec.crashes
     << ", \"partitions\": " << spec.partitions
     << ", \"flap_links\": " << spec.flap_links
     << ", \"flap_mean_up_s\": " << fmt(spec.flap_mean_up_s)
     << ", \"flap_mean_down_s\": " << fmt(spec.flap_mean_down_s)
     << ", \"min_window_s\": " << fmt(spec.min_window_s)
     << ", \"max_window_s\": " << fmt(spec.max_window_s)
     << ", \"jitter_topology\": " << (spec.jitter_topology ? "true" : "false")
     << ", \"jitter_config\": " << (spec.jitter_config ? "true" : "false")
     << "}";
  const bool has_byzantine = spec.byzantine != 0 || !spec.byz_equivocate ||
                             !spec.byz_corrupt || !spec.byz_lie_info ||
                             !spec.byz_bogus_offer;
  if (has_byzantine) {
    os << ",\n  \"byzantine\": {\"count\": " << spec.byzantine
       << ", \"equivocate\": " << (spec.byz_equivocate ? "true" : "false")
       << ", \"corrupt\": " << (spec.byz_corrupt ? "true" : "false")
       << ", \"lie_info\": " << (spec.byz_lie_info ? "true" : "false")
       << ", \"bogus_offer\": " << (spec.byz_bogus_offer ? "true" : "false")
       << "}";
  }
  const bool has_config =
      spec.attach_period_s.has_value() || spec.info_period_inter_s.has_value() ||
      spec.gapfill_period_neighbor_s.has_value() ||
      spec.piggyback_info.has_value() || spec.batch_flush_ms.has_value() ||
      spec.batch_max_bytes.has_value() || spec.auth_enabled.has_value();
  if (has_config) {
    os << ",\n  \"config\": {";
    const char* sep = "";
    if (spec.attach_period_s.has_value()) {
      os << sep << "\"attach_period_s\": " << fmt(*spec.attach_period_s);
      sep = ", ";
    }
    if (spec.info_period_inter_s.has_value()) {
      os << sep
         << "\"info_period_inter_s\": " << fmt(*spec.info_period_inter_s);
      sep = ", ";
    }
    if (spec.gapfill_period_neighbor_s.has_value()) {
      os << sep << "\"gapfill_period_neighbor_s\": "
         << fmt(*spec.gapfill_period_neighbor_s);
      sep = ", ";
    }
    if (spec.piggyback_info.has_value()) {
      os << sep << "\"piggyback_info\": "
         << (*spec.piggyback_info ? "true" : "false");
      sep = ", ";
    }
    if (spec.batch_flush_ms.has_value()) {
      os << sep << "\"batch_flush_ms\": " << fmt(*spec.batch_flush_ms);
      sep = ", ";
    }
    if (spec.batch_max_bytes.has_value()) {
      os << sep << "\"batch_max_bytes\": " << *spec.batch_max_bytes;
      sep = ", ";
    }
    if (spec.auth_enabled.has_value()) {
      os << sep << "\"auth_enabled\": "
         << (*spec.auth_enabled ? "true" : "false");
    }
    os << "}";
  }
  if (spec.concrete) {
    os << ",\n  \"concrete\": true,\n  \"events\": [";
    for (std::size_t i = 0; i < spec.events.size(); ++i) {
      const ChaosEvent& e = spec.events[i];
      if (i > 0) os << ",";
      os << "\n    {\"type\": " << util::json_string(e.type)
         << ", \"target\": " << e.target
         << ", \"from_s\": " << fmt(e.from_s)
         << ", \"to_s\": " << fmt(e.to_s) << "}";
    }
    if (!spec.events.empty()) os << "\n  ";
    os << "]";
  }
  os << "\n}\n";
  return os.str();
}

ChaosSpec parse_chaos_spec(const std::string& json) {
  const Json root = util::parse_json(json, kJsonContext);
  if (root.type != Json::Type::kObject) {
    throw std::invalid_argument("chaos spec: top level must be an object");
  }
  ChaosSpec spec;
  if (const Json* t = root.find("topology"); t != nullptr) {
    spec.clusters = int_or(*t, "clusters", spec.clusters);
    spec.hosts_per_cluster =
        int_or(*t, "hosts_per_cluster", spec.hosts_per_cluster);
    spec.shape = str_or(*t, "shape", spec.shape);
    (void)shape_from_string(spec.shape);  // validate early
  }
  if (const Json* w = root.find("workload"); w != nullptr) {
    spec.broadcasts = int_or(*w, "broadcasts", spec.broadcasts);
    spec.interval_s = num_or(*w, "interval_s", spec.interval_s);
    spec.first_at_s = num_or(*w, "first_at_s", spec.first_at_s);
  }
  if (const Json* h = root.find("horizon"); h != nullptr) {
    spec.fault_end_s = num_or(*h, "fault_end_s", spec.fault_end_s);
    spec.orphan_limit_s = num_or(*h, "orphan_limit_s", spec.orphan_limit_s);
    spec.converge_deadline_s =
        num_or(*h, "converge_deadline_s", spec.converge_deadline_s);
    spec.horizon_s = num_or(*h, "horizon_s", spec.horizon_s);
  }
  if (const Json* g = root.find("generate"); g != nullptr) {
    spec.outages = int_or(*g, "outages", spec.outages);
    spec.crashes = int_or(*g, "crashes", spec.crashes);
    spec.partitions = int_or(*g, "partitions", spec.partitions);
    spec.flap_links = int_or(*g, "flap_links", spec.flap_links);
    spec.flap_mean_up_s = num_or(*g, "flap_mean_up_s", spec.flap_mean_up_s);
    spec.flap_mean_down_s =
        num_or(*g, "flap_mean_down_s", spec.flap_mean_down_s);
    spec.min_window_s = num_or(*g, "min_window_s", spec.min_window_s);
    spec.max_window_s = num_or(*g, "max_window_s", spec.max_window_s);
    spec.jitter_topology = bool_or(*g, "jitter_topology", spec.jitter_topology);
    spec.jitter_config = bool_or(*g, "jitter_config", spec.jitter_config);
  }
  if (const Json* b = root.find("byzantine"); b != nullptr) {
    spec.byzantine = int_or(*b, "count", spec.byzantine);
    spec.byz_equivocate = bool_or(*b, "equivocate", spec.byz_equivocate);
    spec.byz_corrupt = bool_or(*b, "corrupt", spec.byz_corrupt);
    spec.byz_lie_info = bool_or(*b, "lie_info", spec.byz_lie_info);
    spec.byz_bogus_offer = bool_or(*b, "bogus_offer", spec.byz_bogus_offer);
  }
  if (const Json* c = root.find("config"); c != nullptr) {
    if (c->find("attach_period_s") != nullptr) {
      spec.attach_period_s = num_or(*c, "attach_period_s", 0);
    }
    if (c->find("info_period_inter_s") != nullptr) {
      spec.info_period_inter_s = num_or(*c, "info_period_inter_s", 0);
    }
    if (c->find("gapfill_period_neighbor_s") != nullptr) {
      spec.gapfill_period_neighbor_s =
          num_or(*c, "gapfill_period_neighbor_s", 0);
    }
    if (c->find("piggyback_info") != nullptr) {
      spec.piggyback_info = bool_or(*c, "piggyback_info", false);
    }
    if (c->find("batch_flush_ms") != nullptr) {
      spec.batch_flush_ms = num_or(*c, "batch_flush_ms", 0);
    }
    if (c->find("batch_max_bytes") != nullptr) {
      spec.batch_max_bytes = int_or(*c, "batch_max_bytes", 0);
    }
    if (c->find("auth_enabled") != nullptr) {
      spec.auth_enabled = bool_or(*c, "auth_enabled", false);
    }
  }
  spec.concrete = bool_or(root, "concrete", false);
  for (const Json& item : util::json_items(root, "events", kJsonContext)) {
    if (item.type != Json::Type::kObject) {
      throw std::invalid_argument("chaos spec: each event must be an object");
    }
    ChaosEvent e;
    e.type = str_or(item, "type", "");
    validate_event_type(e.type);
    e.target = int_or(item, "target", 0);
    e.from_s = num_or(item, "from_s", 0);
    e.to_s = num_or(item, "to_s", 0);
    spec.events.push_back(std::move(e));
  }
  if (spec.clusters < 1 || spec.hosts_per_cluster < 1) {
    throw std::invalid_argument("chaos spec: topology must be non-empty");
  }
  if (spec.fault_end_s <= 0 || spec.converge_deadline_s <= 0 ||
      spec.orphan_limit_s <= 0) {
    throw std::invalid_argument("chaos spec: horizon fields must be positive");
  }
  return spec;
}

ChaosSpec load_chaos_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open chaos spec: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_chaos_spec(buffer.str());
}

ChaosSpec concretize(const ChaosSpec& spec, std::uint64_t seed) {
  if (spec.concrete) return spec;
  ChaosSpec out = spec;
  const util::RngFactory rngs(seed);

  if (out.jitter_topology) {
    util::Rng rng = rngs.stream("chaos.topology");
    out.clusters =
        static_cast<int>(rng.uniform_int(2, std::max(2, spec.clusters)));
    out.hosts_per_cluster = static_cast<int>(
        rng.uniform_int(1, std::max(1, spec.hosts_per_cluster)));
    static constexpr const char* kShapes[] = {"line", "ring", "star"};
    out.shape = kShapes[rng.uniform_int(0, 2)];
  }
  if (out.jitter_config) {
    util::Rng rng = rngs.stream("chaos.config");
    out.attach_period_s = 1.0 + rng.uniform() * 2.0;
    out.info_period_inter_s = 2.0 + rng.uniform() * 4.0;
    out.gapfill_period_neighbor_s = 0.5 + rng.uniform() * 1.5;
    out.piggyback_info = rng.chance(0.5);
  }

  // Upper bounds for modulo-mapped targets; exact counts do not matter.
  const int trunk_targets = std::max(1, out.clusters);
  const int host_targets = std::max(1, out.clusters * out.hosts_per_cluster);
  const double window_floor = std::max(0.5, out.min_window_s);
  const double window_ceil = std::max(window_floor, out.max_window_s);
  const double latest_start = std::max(1.0, out.fault_end_s - window_floor);

  auto draw_window = [&](util::Rng& rng, const char* type, int target) {
    ChaosEvent e;
    e.type = type;
    e.target = target;
    e.from_s = 1.0 + rng.uniform() * (latest_start - 1.0);
    const double len =
        window_floor + rng.uniform() * (window_ceil - window_floor);
    e.to_s = std::min(e.from_s + len, out.fault_end_s);
    return e;
  };

  {
    util::Rng rng = rngs.stream("chaos.outage");
    for (int k = 0; k < out.outages; ++k) {
      out.events.push_back(draw_window(
          rng, "outage",
          static_cast<int>(rng.uniform_int(0, trunk_targets - 1))));
    }
  }
  {
    util::Rng rng = rngs.stream("chaos.crash");
    for (int k = 0; k < out.crashes; ++k) {
      out.events.push_back(draw_window(
          rng, "crash", static_cast<int>(rng.uniform_int(0, host_targets - 1))));
    }
  }
  {
    util::Rng rng = rngs.stream("chaos.partition");
    for (int k = 0; k < out.partitions; ++k) {
      out.events.push_back(draw_window(
          rng, "partition",
          static_cast<int>(rng.uniform_int(0, out.clusters - 1))));
    }
  }
  {
    // Each adversary draws a target and one window per enabled behavior.
    // Separate events per behavior keep ddmin granularity fine: a shrunk
    // repro names exactly the behaviors needed to reproduce.
    util::Rng rng = rngs.stream("chaos.byzantine");
    for (int k = 0; k < out.byzantine; ++k) {
      const int target =
          static_cast<int>(rng.uniform_int(0, host_targets - 1));
      if (out.byz_equivocate) {
        out.events.push_back(draw_window(rng, "byz_equivocate", target));
      }
      if (out.byz_corrupt) {
        out.events.push_back(draw_window(rng, "byz_corrupt", target));
      }
      if (out.byz_lie_info) {
        out.events.push_back(draw_window(rng, "byz_lie_info", target));
      }
      if (out.byz_bogus_offer) {
        out.events.push_back(draw_window(rng, "byz_offer", target));
      }
    }
  }
  // Flapping becomes explicit outage windows, so the whole schedule is one
  // shrinkable event list.
  for (int i = 0; i < out.flap_links; ++i) {
    util::Rng rng = rngs.stream("chaos.flap", i);
    const int target = static_cast<int>(rng.uniform_int(0, trunk_targets - 1));
    double t = 1.0;
    while (true) {
      t += std::max(0.2, rng.exponential(std::max(0.5, out.flap_mean_up_s)));
      const double down =
          std::max(0.2, rng.exponential(std::max(0.5, out.flap_mean_down_s)));
      if (t + down >= out.fault_end_s) break;
      out.events.push_back(ChaosEvent{"outage", target, t, t + down});
      t += down;
    }
  }

  // Drop degenerate windows, order by start time (stable tie-break on the
  // full event tuple keeps expansion deterministic).
  std::erase_if(out.events, [&](const ChaosEvent& e) {
    return e.to_s <= e.from_s || e.from_s >= out.fault_end_s;
  });
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     if (a.from_s != b.from_s) return a.from_s < b.from_s;
                     if (a.to_s != b.to_s) return a.to_s < b.to_s;
                     if (a.type != b.type) return a.type < b.type;
                     return a.target < b.target;
                   });
  out.concrete = true;
  return out;
}

ChaosRunResult run_chaos(const ChaosSpec& spec, std::uint64_t seed,
                         trace::TraceSink* sink) {
  const ChaosSpec c = concretize(spec, seed);

  topo::ClusteredWanOptions wan_options;
  wan_options.clusters = std::max(2, c.clusters);
  wan_options.hosts_per_cluster = std::max(1, c.hosts_per_cluster);
  wan_options.shape = shape_from_string(c.shape);
  wan_options.seed = seed;
  const topo::Wan wan = topo::make_clustered_wan(wan_options);

  ScenarioOptions options;
  options.seed = seed;
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::from_seconds(c.orphan_limit_s);
  options.monitor.converge_deadline = sim::from_seconds(c.converge_deadline_s);
  if (c.attach_period_s.has_value()) {
    options.protocol.attach_period = sim::from_seconds(*c.attach_period_s);
  }
  if (c.info_period_inter_s.has_value()) {
    options.protocol.info_period_inter =
        sim::from_seconds(*c.info_period_inter_s);
  }
  if (c.gapfill_period_neighbor_s.has_value()) {
    options.protocol.gapfill_period_neighbor =
        sim::from_seconds(*c.gapfill_period_neighbor_s);
  }
  if (c.piggyback_info.has_value()) {
    options.protocol.piggyback_info = *c.piggyback_info;
  }
  if (c.batch_flush_ms.has_value()) {
    options.protocol.batch_flush_delay =
        sim::from_seconds(*c.batch_flush_ms / 1000.0);
  }
  if (c.batch_max_bytes.has_value()) {
    options.protocol.batch_max_bytes =
        static_cast<std::size_t>(*c.batch_max_bytes);
  }
  if (c.auth_enabled.has_value()) {
    options.protocol.auth_enabled = *c.auth_enabled;
  }

  // Byzantine behavior windows become a per-host schedule before the
  // experiment is wired (the decorator interposes at host attach time).
  // Targets map onto non-source hosts: an adversarial source would trivially
  // violate everything, which is not the containment question.
  const std::size_t total_hosts = wan.topology.host_count();
  for (const ChaosEvent& ev : c.events) {
    if (!is_byzantine_event(ev.type)) continue;
    if (ev.to_s <= ev.from_s || total_hosts < 2) continue;
    const auto victim = static_cast<HostId::value_type>(
        1 + mod_index(ev.target, total_hosts - 1));
    options.byzantine[HostId{victim}].push_back(
        ByzantineBehavior{byzantine_kind(ev.type), ev.from_s, ev.to_s});
  }

  Experiment e(wan.topology, options);
  if (!options.byzantine.empty()) {
    e.monitor()->set_byzantine_hosts(e.byzantine()->byzantine_hosts());
  }
  if (sink != nullptr) e.set_trace_sink(sink);

  for (const ChaosEvent& ev : c.events) {
    const auto from = sim::from_seconds(std::max(0.001, ev.from_s));
    const auto to =
        sim::from_seconds(std::max(0.002, std::min(ev.to_s, c.fault_end_s)));
    if (to <= from) continue;
    if (ev.type == "outage") {
      if (wan.trunks.empty()) continue;
      e.faults().outage_window(wan.trunks[mod_index(ev.target,
                                                    wan.trunks.size())],
                               from, to);
    } else if (ev.type == "crash") {
      const auto victim = static_cast<HostId::value_type>(
          mod_index(ev.target, e.host_count()));
      e.faults().host_crash_window(HostId{victim}, from, to);
    } else if (ev.type == "partition") {
      const std::size_t cluster =
          mod_index(ev.target, wan.cluster_head_server.size());
      const auto cut = net::FaultPlan::trunks_incident_to(
          e.topology(), wan.cluster_head_server[cluster]);
      if (!cut.empty()) e.faults().partition_window(cut, from, to);
    } else if (is_byzantine_event(ev.type)) {
      // Already folded into options.byzantine above.
    } else {
      throw std::invalid_argument("chaos spec: unknown event type '" +
                                  ev.type + "'");
    }
  }

  e.monitor()->set_faults_quiet_at(sim::from_seconds(c.fault_end_s));
  e.start();
  e.broadcast_stream(c.broadcasts, sim::from_seconds(c.interval_s),
                     sim::from_seconds(c.first_at_s));
  // Post-quiescence probe: the attachment rules only re-form the tree when
  // new information flows, so every chaos run guarantees one broadcast
  // after faults end. The monitor clocks C2/C3 from this anchor.
  e.schedule_broadcast_at(sim::from_seconds(c.fault_end_s + 2.0));

  const double horizon_s = c.horizon_s > 0
                               ? c.horizon_s
                               : c.fault_end_s + c.converge_deadline_s + 10.0;
  const sim::TimePoint horizon = sim::from_seconds(horizon_s);
  const sim::TimePoint done = e.run_until_delivered(horizon);
  // Keep running to the horizon so the C3 convergence deadline is actually
  // crossed and judged even when delivery finished early.
  e.run_until(horizon);
  e.monitor()->finish();

  ChaosRunResult result;
  result.violations = e.monitor()->violations();
  result.delivered_all = e.all_delivered();
  result.completion_s = sim::to_seconds(done);
  result.manifest = trace::manifest_line(e.manifest());
  result.containment = e.monitor()->containment();
  for (const core::BroadcastHost* host : e.host_views()) {
    result.auth_rejects += host->counters().auth_rejects;
  }
  return result;
}

ShrinkResult shrink_chaos(const ChaosSpec& failing, std::uint64_t seed,
                          int max_attempts) {
  RBCAST_CHECK_ARG(max_attempts >= 1, "max_attempts must be positive");
  ChaosSpec best = concretize(failing, seed);
  int attempts = 0;

  const ChaosRunResult original = run_chaos(best, seed);
  ++attempts;
  RBCAST_CHECK_ARG(original.violated(),
                   "shrink_chaos requires a spec that fails under this seed");
  const std::string signature = violation_signature(original.violations.front());

  // A candidate is kept only if it still violates the *same* invariant in
  // the *same* failure class — shrinking must preserve the failure, not
  // find a different one (see violation_signature).
  auto fails = [&](const ChaosSpec& candidate) {
    if (attempts >= max_attempts) return false;
    ++attempts;
    const ChaosRunResult r = run_chaos(candidate, seed);
    return std::any_of(r.violations.begin(), r.violations.end(),
                       [&](const InvariantViolation& v) {
                         return violation_signature(v) == signature;
                       });
  };

  ShrinkResult result;
  result.events_before = static_cast<int>(best.events.size());

  // 1. ddmin over the concrete event list.
  std::size_t granularity = 2;
  while (!best.events.empty() && attempts < max_attempts) {
    const std::size_t n = best.events.size();
    granularity = std::min(granularity, n);
    const std::size_t chunk = (n + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < n && attempts < max_attempts;
         start += chunk) {
      ChaosSpec candidate = best;
      const auto first =
          candidate.events.begin() + static_cast<std::ptrdiff_t>(start);
      const auto last = candidate.events.begin() +
                        static_cast<std::ptrdiff_t>(std::min(start + chunk, n));
      candidate.events.erase(first, last);
      if (candidate.events.size() < n && fails(candidate)) {
        best = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= n) break;  // 1-minimal
      granularity = std::min(n, granularity * 2);
    }
  }

  // 2. Shrink the topology (event targets are modulo-mapped, so they stay
  // valid as entity counts drop).
  while (best.clusters > 2 && attempts < max_attempts) {
    ChaosSpec candidate = best;
    --candidate.clusters;
    if (!fails(candidate)) break;
    best = std::move(candidate);
  }
  while (best.hosts_per_cluster > 1 && attempts < max_attempts) {
    ChaosSpec candidate = best;
    --candidate.hosts_per_cluster;
    if (!fails(candidate)) break;
    best = std::move(candidate);
  }

  // 3. Shrink the workload.
  while (best.broadcasts > 1 && attempts < max_attempts) {
    ChaosSpec candidate = best;
    candidate.broadcasts = std::max(1, candidate.broadcasts / 2);
    if (candidate.broadcasts == best.broadcasts || !fails(candidate)) break;
    best = std::move(candidate);
  }

  // 4. Pull the fault horizon in to just past the last surviving event (and
  // the end of the workload), shortening the whole run.
  if (attempts < max_attempts) {
    double last_event = 0;
    for (const ChaosEvent& e : best.events) {
      last_event = std::max(last_event, e.to_s);
    }
    const double workload_end =
        best.first_at_s + best.broadcasts * best.interval_s;
    const double tight = std::max(last_event, workload_end) + 1.0;
    if (tight < best.fault_end_s) {
      ChaosSpec candidate = best;
      candidate.fault_end_s = tight;
      if (fails(candidate)) best = std::move(candidate);
    }
  }

  result.spec = best;
  result.attempts = attempts;
  result.events_after = static_cast<int>(best.events.size());
  result.violations = run_chaos(best, seed).violations;
  return result;
}

}  // namespace rbcast::harness
