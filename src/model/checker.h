// Bounded exploration of the shipping protocol automaton.
//
// The paper's companion technical report [Garc87] gives a formal
// specification of the algorithm; this module checks the code that ships
// against its safety properties. Every model host is a copy of
// core::HostProtocol — the automaton BroadcastHost runs — and each
// transition is one of its entry points or an adversary move. At any
// state the explorer may deliver (through on_delivery), drop or duplicate
// any in-flight message; run any host's attachment_round, or its
// send_info / gapfill_to toward any peer; time out any host's parent or
// pending attach; let the source broadcast; tick the model clock past
// every period and timeout (lapsing offers and exclusions); and, with
// ModelConfig::forge, inject DATA with a wrong body. The cost bit derives
// from a static cluster map. Maintenance is not a transition (only its
// parent-timeout branch is), so nothing is pruned and no child times out.
//
// Safety invariants checked in every reachable state:
//   I1 exactly-once — no application delivers any message twice;
//   I2 integrity    — every delivered body equals what the source sent;
//   I3 no invention — no INFO set contains a sequence number the source
//                     has not generated;
//   I4 consistency  — a host's delivered set equals its INFO set;
//   I5 sane parents — no host is its own parent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/host_protocol.h"
#include "util/rng.h"

namespace rbcast::model {

using core::ProtocolMessage;
using core::Seq;

struct ModelConfig {
  int hosts{3};
  // cluster_of[h] = ground-truth cluster index of host h.
  std::vector<int> cluster_of{0, 0, 0};
  HostId source{0};
  // The source may generate up to this many messages.
  int max_broadcasts{2};
  // In-flight message capacity; sends beyond it are lost (loss is legal
  // in the model, so capacity pruning never hides behaviours, it only
  // bounds the state space). Forged messages count against it too.
  std::size_t max_inflight{4};

  // The forged-DATA adversary: a move that injects, from any host to any
  // other, a DATA message carrying a wrong body for an already issued
  // seq. kNoAuth runs the hosts with Config::auth_enabled off (the paper's
  // trusting relays: integrity, I2, falls); kAuth turns it on and lets the
  // forgery carry the source's genuine tag for that seq, replayed onto
  // the wrong body.
  enum class Forge { kNone, kNoAuth, kAuth };
  Forge forge{Forge::kNone};

  [[nodiscard]] bool same_cluster(HostId a, HostId b) const {
    return cluster_of[static_cast<std::size_t>(a.value)] ==
           cluster_of[static_cast<std::size_t>(b.value)];
  }
};

// A message in the adversarial network.
struct ModelMessage {
  HostId from;
  HostId to;
  ProtocolMessage payload;

  [[nodiscard]] std::string describe() const;
};

// Canonical serialization of an automaton for state deduplication. Every
// time-stamped field a move reads is recorded relative to `now` — live or
// lapsed — so clock ticks do not grow the state space. The liveness stamps
// (PeerRecord::last_heard, the parent's last-heard time) stay out: only
// HostProtocol::maintenance_round reads them, and it is not a move.
// Counters are observations and stay out too.
[[nodiscard]] std::string protocol_fingerprint(const core::HostProtocol& p,
                                               util::TimePoint now);

// One model host: the shipping automaton plus what its application saw,
// filled by the checker's deliver effect.
struct ModelHost {
  core::HostProtocol protocol;
  // Application deliveries per sequence number (exactly-once is
  // count <= 1 for every seq) and the body each delivery carried.
  std::map<Seq, int> deliveries;
  std::map<Seq, std::string> delivered_bodies;
};

// Complete system state; value type (the explorer clones it freely).
struct SystemState {
  std::vector<ModelHost> nodes;
  std::vector<ModelMessage> inflight;
  int broadcasts_done{0};
  // body of message q is bodies[q-1]
  std::vector<std::string> bodies;
  // The model clock; moves only on a tick.
  util::TimePoint now{0};

  [[nodiscard]] std::string fingerprint() const;
};

struct Violation {
  std::string invariant;   // "I1".."I5"
  std::string description;
  std::vector<std::string> trace;  // transition descriptions from init
};

struct ExplorationReport {
  std::uint64_t states_explored{0};
  std::uint64_t transitions_fired{0};
  bool truncated{false};  // hit a bound before exhausting the space
  std::vector<Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
};

class Checker {
 public:
  explicit Checker(ModelConfig config);

  // Exhaustive BFS from the initial state, bounded by depth and by the
  // number of distinct states. Stops at the first violation.
  [[nodiscard]] ExplorationReport explore_bfs(int max_depth,
                                              std::uint64_t max_states);

  // Many random schedules of bounded length; cheaper and deeper than BFS.
  [[nodiscard]] ExplorationReport explore_random(int walks, int steps,
                                                 std::uint64_t seed);

  struct LivenessReport {
    int walks{0};
    int completed{0};  // walks where every host got every broadcast
    double mean_steps_to_complete{0.0};
    std::vector<Violation> violations;
    [[nodiscard]] bool clean() const { return violations.empty(); }
  };

  // Liveness smoke test: random walks under a *fair* scheduler — protocol
  // steps and deliveries are weighted far above adversarial drops and
  // duplications, approximating the paper's "given sufficient time,
  // communication opportunities recur" assumption. Counts how many walks
  // reach full dissemination (every host holds every broadcast) within
  // `max_steps`. Safety invariants are still checked throughout.
  [[nodiscard]] LivenessReport explore_liveness(int walks, int max_steps,
                                                std::uint64_t seed);

  [[nodiscard]] SystemState initial_state() const;

  // All transitions enabled in `state`, as (description, successor) pairs.
  [[nodiscard]] std::vector<std::pair<std::string, SystemState>> successors(
      const SystemState& state) const;

  // Checks the invariants; appends to `violations`.
  void check_invariants(const SystemState& state,
                        const std::vector<std::string>& trace,
                        std::vector<Violation>& violations) const;

 private:
  ModelConfig config_;
  // What every model host runs: Config{}, plus auth_enabled under
  // ModelConfig::Forge::kAuth.
  core::Config protocol_config_;
  // One clock tick: longer than every period and timeout of
  // protocol_config_ the handlers compare against.
  util::Duration tick_{0};
};

}  // namespace rbcast::model
