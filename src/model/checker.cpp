#include "model/checker.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "model/invariants.h"
#include "util/assert.h"

namespace rbcast::model {

namespace {

// The checker's side of HostProtocol::Effects for host `self`: sends enter
// the adversarial network, first receipts are recorded for the invariants,
// and the attach timer is the explorer's own attach-timeout move, enabled
// while a handshake is pending.
struct Sink final : core::HostProtocol::Effects {
  Sink(SystemState& s, HostId h, std::size_t cap)
      : state(s), self(h), capacity(cap) {}

  void send(HostId to, ProtocolMessage m) override {
    ++sent;
    // Over capacity: the send is lost. Loss at any point is part of the
    // model, so this prunes no behaviour class.
    if (state.inflight.size() < capacity) {
      state.inflight.push_back(ModelMessage{self, to, std::move(m)});
    }
  }
  void deliver(Seq seq, std::string_view body) override {
    ModelHost& host = state.nodes[static_cast<std::size_t>(self.value)];
    ++host.deliveries[seq];
    host.delivered_bodies[seq] = std::string(body);
  }
  void arm_attach_timeout(HostId /*candidate*/) override {}
  void cancel_attach_timeout() override {}

  SystemState& state;
  HostId self;
  std::size_t capacity;
  int sent{0};  // sends attempted, including those lost to the capacity
};

}  // namespace

std::string ModelMessage::describe() const {
  std::ostringstream os;
  os << from << "->" << to << ":" << core::kind_of(payload);
  if (const auto* data = std::get_if<core::DataMsg>(&payload)) {
    os << "#" << data->seq << "=" << data->body.view();
  } else if (const auto* info = std::get_if<core::InfoMsg>(&payload)) {
    os << info->info.to_string() << "/p=" << info->parent.value;
  } else if (const auto* req = std::get_if<core::AttachRequest>(&payload)) {
    os << req->info.to_string();
  } else if (const auto* acc = std::get_if<core::AttachAccept>(&payload)) {
    os << acc->info.to_string() << "/p=" << acc->parent.value;
  }
  return os.str();
}

std::string protocol_fingerprint(const core::HostProtocol& p,
                                 util::TimePoint now) {
  const core::HostState& s = p.state();
  const core::Config& c = p.config();
  std::ostringstream os;
  // Only whether the count exceeds the retry burst changes behaviour.
  os << p.self() << "{i=" << s.info().to_string()
     << ";p=" << s.parent().value << ";pa=" << p.pending_attach().value
     << ";t="
     << std::min(p.consecutive_attach_timeouts(), c.attach_retry_burst)
     << ";c=";
  for (HostId child : s.children()) os << child.value << ',';
  os << ";cl=";
  for (HostId member : s.cluster()) os << member.value << ',';
  os << ";m=";
  const core::HostProtocol::PeerRecord unwritten;
  for (HostId h : s.all_hosts()) {
    if (h == p.self()) continue;
    const core::HostProtocol::PeerRecord* peer = p.peer(h);
    const auto& r = peer != nullptr ? *peer : unwritten;
    os << h.value << '=' << s.map(h).to_string() << '|'
       << s.parent_of(h).value << '|' << (r.failed_until > now)
       << (r.last_piggyback.has_value() &&
           now - *r.last_piggyback < c.info_period_intra)
       << 'o';
    for (const auto& [seq, expiry] : r.offered) {
      if (expiry > now) os << seq << '.';
    }
    os << ',';
  }
  os << '}';
  return os.str();
}

std::string SystemState::fingerprint() const {
  std::ostringstream os;
  os << 'b' << broadcasts_done << ';';
  for (const ModelHost& node : nodes) {
    os << protocol_fingerprint(node.protocol, now) << "d=";
    for (const auto& [seq, count] : node.deliveries) {
      os << seq << 'x' << count << '=' << node.delivered_bodies.at(seq)
         << ',';
    }
    os << ';';
  }
  // In-flight messages form a multiset: order-independent canonical form.
  std::vector<std::string> wire;
  wire.reserve(inflight.size());
  for (const ModelMessage& m : inflight) wire.push_back(m.describe());
  std::sort(wire.begin(), wire.end());
  for (const std::string& w : wire) os << w << ';';
  return os.str();
}

Checker::Checker(ModelConfig config) : config_(std::move(config)) {
  RBCAST_CHECK_ARG(config_.hosts >= 1, "need at least one host");
  RBCAST_CHECK_ARG(
      config_.cluster_of.size() == static_cast<std::size_t>(config_.hosts),
      "cluster_of must cover every host");
  RBCAST_CHECK_ARG(config_.source.value < config_.hosts, "bad source");
  protocol_config_.auth_enabled = config_.forge == ModelConfig::Forge::kAuth;
  const core::Config& c = protocol_config_;
  tick_ = std::max({4 * c.attach_period, c.info_period_intra,
                    c.gapfill_suppress_period, c.parent_timeout,
                    c.child_timeout}) +
          util::seconds(1);
}

SystemState Checker::initial_state() const {
  std::vector<HostId> hosts;
  for (int i = 0; i < config_.hosts; ++i) hosts.push_back(HostId{i});
  SystemState state;
  for (HostId h : hosts) {
    state.nodes.push_back(
        {core::HostProtocol(h, config_.source, hosts, protocol_config_,
                            util::Rng(static_cast<std::uint64_t>(h.value))),
         {}, {}});
  }
  return state;
}

std::vector<std::pair<std::string, SystemState>> Checker::successors(
    const SystemState& state) const {
  std::vector<std::pair<std::string, SystemState>> out;

  // Runs `step` as host h on a copy of `state`. A move that must send to
  // matter is dropped when it sent nothing.
  auto move = [&](std::string description, HostId h, bool needs_send,
                  const auto& step) {
    SystemState next = state;
    Sink fx(next, h, config_.max_inflight);
    step(next.nodes[static_cast<std::size_t>(h.value)].protocol, fx, next);
    if (needs_send && fx.sent == 0) return;
    out.emplace_back(std::move(description), std::move(next));
  };
  auto name = [](HostId h) { return "h" + std::to_string(h.value); };

  if (state.broadcasts_done < config_.max_broadcasts) {
    const std::string body = "m" + std::to_string(state.broadcasts_done + 1);
    move("broadcast#" + std::to_string(state.broadcasts_done + 1),
         config_.source, false,
         [&](core::HostProtocol& p, Sink& fx, SystemState& next) {
           next.bodies.push_back(body);
           ++next.broadcasts_done;
           p.broadcast(next.now, body, fx);
         });
  }

  for (std::size_t i = 0; i < state.inflight.size(); ++i) {
    const ModelMessage& m = state.inflight[i];
    const auto at = static_cast<std::ptrdiff_t>(i);
    move("deliver " + m.describe(), m.to, false,
         [&](core::HostProtocol& p, Sink& fx, SystemState& next) {
           net::Delivery delivery;
           delivery.from = m.from;
           delivery.to = m.to;
           delivery.expensive = !config_.same_cluster(m.from, m.to);
           delivery.payload = m.payload;
           next.inflight.erase(next.inflight.begin() + at);
           p.on_delivery(next.now, delivery, fx);
         });
    {
      SystemState next = state;
      next.inflight.erase(next.inflight.begin() + at);
      out.emplace_back("drop " + m.describe(), std::move(next));
    }
    if (state.inflight.size() < config_.max_inflight) {
      SystemState next = state;
      next.inflight.push_back(m);
      out.emplace_back("duplicate " + m.describe(), std::move(next));
    }
  }

  // Forged DATA carries the source's genuine tag for the seq when signing
  // is on: a replayed signature on the wrong body.
  if (config_.forge != ModelConfig::Forge::kNone &&
      state.inflight.size() < config_.max_inflight) {
    for (int q = 1; q <= state.broadcasts_done; ++q) {
      const auto seq = static_cast<Seq>(q);
      core::DataMsg forged{seq, core::Payload("forged"), false, std::nullopt,
                           std::nullopt};
      if (protocol_config_.auth_enabled) {
        forged.auth = core::make_auth_tag(
            protocol_config_.auth_secret, config_.source, seq,
            state.bodies[static_cast<std::size_t>(q - 1)]);
      }
      for (const ModelHost& from : state.nodes) {
        for (const ModelHost& to : state.nodes) {
          if (&from == &to) continue;
          SystemState next = state;
          next.inflight.push_back(
              ModelMessage{from.protocol.self(), to.protocol.self(), forged});
          out.emplace_back("forge " + next.inflight.back().describe(),
                           std::move(next));
        }
      }
    }
  }

  for (const ModelHost& node : state.nodes) {
    const HostId h = node.protocol.self();
    move(name(h) + " attach-step", h, true,
         [](core::HostProtocol& p, Sink& fx, SystemState& next) {
           p.attachment_round(next.now, fx);
         });
    for (const ModelHost& peer : state.nodes) {
      const HostId j = peer.protocol.self();
      if (j == h) continue;
      move(name(h) + " info-> " + name(j), h, true,
           [j](core::HostProtocol& p, Sink& fx, SystemState& next) {
             p.send_info(next.now, j, fx);
           });
      move(name(h) + " gapfill-> " + name(j), h, true,
           [j](core::HostProtocol& p, Sink& fx, SystemState& next) {
             p.gapfill_to(next.now, j, fx);
           });
    }
    if (node.protocol.state().parent().valid()) {
      move(name(h) + " parent-timeout", h, false,
           [](core::HostProtocol& p, Sink& fx, SystemState& next) {
             p.parent_timeout(next.now, fx);
           });
    }
    if (const HostId candidate = node.protocol.pending_attach();
        candidate.valid()) {
      move(name(h) + " attach-timeout", h, false,
           [candidate](core::HostProtocol& p, Sink& fx, SystemState& next) {
             p.on_attach_timeout(next.now, candidate, fx);
           });
    }
  }

  SystemState next = state;
  next.now += tick_;
  out.emplace_back("tick", std::move(next));
  return out;
}

void Checker::check_invariants(const SystemState& state,
                               const std::vector<std::string>& trace,
                               std::vector<Violation>& violations) const {
  namespace inv = invariants;
  auto report = [&](const char* id,
                    const std::optional<std::string>& what) {
    if (what.has_value()) {
      violations.push_back(Violation{id, *what, trace});
    }
  };

  // The predicates themselves are shared with the runtime monitor
  // (src/harness/invariant_monitor.*); see src/model/invariants.h.
  for (const ModelHost& node : state.nodes) {
    const HostId self = node.protocol.self();
    const core::HostState& s = node.protocol.state();
    report(inv::kExactlyOnce, inv::check_exactly_once(self, node.deliveries));
    report(inv::kIntegrity,
           inv::check_integrity(self, node.delivered_bodies, state.bodies));
    report(inv::kNoInvention,
           inv::check_no_invention(self, s.info().max_seq(),
                                   static_cast<Seq>(state.broadcasts_done)));
    report(inv::kInfoConsistency,
           inv::check_info_consistency(self, node.deliveries.size(),
                                       s.info().count()));
    report(inv::kSaneParent, inv::check_sane_parent(self, s.parent()));
  }
}

ExplorationReport Checker::explore_bfs(int max_depth,
                                       std::uint64_t max_states) {
  ExplorationReport report;
  std::unordered_set<std::string> visited;

  struct Item {
    SystemState state;
    int depth;
    std::vector<std::string> trace;
  };
  std::deque<Item> frontier;

  SystemState init = initial_state();
  visited.insert(init.fingerprint());
  check_invariants(init, {}, report.violations);
  frontier.push_back(Item{std::move(init), 0, {}});
  ++report.states_explored;

  while (!frontier.empty() && report.violations.empty()) {
    Item item = std::move(frontier.front());
    frontier.pop_front();
    if (item.depth >= max_depth) {
      report.truncated = true;
      continue;
    }
    for (auto& [description, next] : successors(item.state)) {
      ++report.transitions_fired;
      const std::string key = next.fingerprint();
      if (!visited.insert(key).second) continue;
      if (report.states_explored >= max_states) {
        report.truncated = true;
        return report;
      }
      ++report.states_explored;
      auto trace = item.trace;
      trace.push_back(description);
      check_invariants(next, trace, report.violations);
      if (!report.violations.empty()) return report;
      frontier.push_back(Item{std::move(next), item.depth + 1,
                              std::move(trace)});
    }
  }
  return report;
}

Checker::LivenessReport Checker::explore_liveness(int walks, int max_steps,
                                                  std::uint64_t seed) {
  LivenessReport report;
  report.walks = walks;
  util::RngFactory rngs(seed);
  double total_steps = 0.0;

  auto complete = [&](const SystemState& state) {
    if (state.broadcasts_done < config_.max_broadcasts) return false;
    for (const ModelHost& node : state.nodes) {
      if (node.deliveries.size() !=
          static_cast<std::size_t>(config_.max_broadcasts)) {
        return false;
      }
    }
    return true;
  };

  for (int walk = 0; walk < walks && report.violations.empty(); ++walk) {
    util::Rng rng = rngs.stream("liveness", walk);
    SystemState state = initial_state();
    std::vector<std::string> trace;
    for (int step = 0; step < max_steps; ++step) {
      if (complete(state)) {
        ++report.completed;
        total_steps += step;
        break;
      }
      auto options = successors(state);
      if (options.empty()) break;
      // Fairness: adversarial moves (drop/duplicate) are excluded —
      // liveness is claimed only for intervals where communication works
      // (the paper promises nothing under unbounded loss). Deliveries are
      // weighted up so queued messages move; the tick, which lapses attach
      // exclusions and offer suppression, gets twice a step's weight (the
      // best of 2-24 over seeds 1-10, EXPERIMENTS.md checker table).
      std::vector<int> weights;
      int total = 0;
      weights.reserve(options.size());
      for (const auto& [description, next] : options) {
        const bool adversarial = description.rfind("drop ", 0) == 0 ||
                                 description.rfind("duplicate ", 0) == 0 ||
                                 description.rfind("forge ", 0) == 0;
        const bool delivery = description.rfind("deliver ", 0) == 0;
        const bool tick = description == "tick";
        weights.push_back(adversarial ? 0 : delivery ? 16 : tick ? 8 : 4);
        total += weights.back();
      }
      if (total == 0) break;
      std::int64_t roll = rng.uniform_int(0, total - 1);
      std::size_t pick = 0;
      while (roll >= weights[pick]) {
        roll -= weights[pick];
        ++pick;
      }
      trace.push_back(options[pick].first);
      state = std::move(options[pick].second);
      check_invariants(state, trace, report.violations);
      if (!report.violations.empty()) return report;
    }
  }
  if (report.completed > 0) {
    report.mean_steps_to_complete = total_steps / report.completed;
  }
  return report;
}

ExplorationReport Checker::explore_random(int walks, int steps,
                                          std::uint64_t seed) {
  ExplorationReport report;
  util::RngFactory rngs(seed);

  for (int walk = 0; walk < walks && report.violations.empty(); ++walk) {
    util::Rng rng = rngs.stream("walk", walk);
    SystemState state = initial_state();
    std::vector<std::string> trace;
    for (int step = 0; step < steps; ++step) {
      auto options = successors(state);
      if (options.empty()) break;
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1));
      trace.push_back(options[pick].first);
      state = std::move(options[pick].second);
      ++report.transitions_fired;
      ++report.states_explored;
      check_invariants(state, trace, report.violations);
      if (!report.violations.empty()) return report;
    }
  }
  return report;
}

}  // namespace rbcast::model
