// HostProtocol — the protocol automaton of one host, free of any runtime.
//
// Every handler and periodic activity of the paper's protocol is defined
// here once. The automaton owns all the state they touch and reaches the
// outside only through an Effects sink; the current time is an argument
// of every entry point. BroadcastHost drives it over the simulator and
// real UDP; the model checker (src/model/checker.*) copies automata freely
// and fires the same entry points as transitions, so a copy must share
// nothing mutable with its original (bodies are immutable Payloads).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/host_state.h"
#include "core/messages.h"
#include "core/protocol_observer.h"
#include "net/message.h"
#include "util/rng.h"
#include "util/time.h"

namespace rbcast::core {

class HostProtocol {
 public:
  // Everything a handler does outside the automaton's own state.
  class Effects {
   public:
    // Send `m` to `to` (the paper's single-destination send).
    virtual void send(HostId to, ProtocolMessage m) = 0;
    // First receipt of `seq`: hand it to the application. The view aliases
    // the refcounted Payload held in HostState.
    virtual void deliver(Seq seq, std::string_view body) = 0;
    // Arm the acknowledgment timer of the attach request just sent to
    // `candidate`; on expiry, on_attach_timeout(candidate) must run.
    virtual void arm_attach_timeout(HostId candidate) = 0;
    // The pending handshake completed: disarm its timer.
    virtual void cancel_attach_timeout() = 0;
  };

  struct Counters {
    std::uint64_t attach_attempts{0};
    // Attach attempts keyed by the rule that proposed them ("I.1".."III.1")
    // — which options actually fire is itself an experimental observable.
    std::map<std::string, std::uint64_t> attempts_by_rule;
    std::uint64_t attach_timeouts{0};
    std::uint64_t attaches_completed{0};
    std::uint64_t cycles_broken{0};
    std::uint64_t parent_timeouts{0};
    std::uint64_t new_max_rejected{0};  // new maximum offered by a non-parent
    std::uint64_t duplicates_discarded{0};
    std::uint64_t data_forwarded{0};
    std::uint64_t gapfills_sent{0};
    std::uint64_t deliveries{0};  // first receipts handed to the app
    // Deliveries whose payload failed wire decoding (empty std::any from
    // the transport): counted and dropped, exactly like any other loss.
    std::uint64_t decode_errors{0};
    // Data frames dropped because the per-source authentication tag was
    // missing or failed verification (Config::auth_enabled, see auth.h).
    // Rejected frames leave every bit of protocol state untouched — not
    // even liveness or cluster bookkeeping may trust them.
    std::uint64_t auth_rejects{0};
    // Deliveries whose sender is not among all_hosts — only a wiring bug
    // produces one (UdpTransport already drops unknown source addresses).
    // Dropped before any bookkeeping, like a decode error.
    std::uint64_t unknown_sender_drops{0};
  };

  // Per-peer bookkeeping of this host (HostState keeps the paper's state).
  struct PeerRecord {
    // Last delivery of any kind from the peer (child liveness).
    util::TimePoint last_heard{0};
    // Piggyback suppression (Config::piggyback_info): when a data message
    // carrying our INFO set last went to the peer. The next intra-cluster
    // INFO round skips it if that was within the round.
    std::optional<util::TimePoint> last_piggyback;
    // The peer is skipped as an attach candidate until this time, after
    // its handshake timed out.
    util::TimePoint failed_until{0};
    // Optimistic offer tracking (duplicate gap-fill suppression): expiry
    // time of each outstanding offer. Ordered for determinism.
    std::map<Seq, util::TimePoint> offered;
  };

  HostProtocol(HostId self, HostId source, std::vector<HostId> all_hosts,
               Config config, util::Rng rng);

  // Source API: appends the next message to the broadcast stream.
  // Precondition: is_source().
  Seq broadcast(util::TimePoint now, std::string body, Effects& fx);

  // A message for this host arrived (with its cost bit).
  void on_delivery(util::TimePoint now, const net::Delivery& delivery,
                   Effects& fx);

  // The attachment procedure (Section 4.2); no-op at the source and while
  // a handshake is in flight.
  void attachment_round(util::TimePoint now, Effects& fx);
  // The acknowledgment of the request sent to `candidate` timed out.
  void on_attach_timeout(util::TimePoint now, HostId candidate, Effects& fx);

  // The INFO rounds: frequent toward cluster members and parent-graph
  // neighbors, rare toward everyone else. send_info(j) is one round's
  // report to j.
  void info_round_intra(util::TimePoint now, Effects& fx);
  void info_round_inter(util::TimePoint now, Effects& fx);
  void send_info(util::TimePoint now, HostId j, Effects& fx);

  // The gap-fill rounds: in-cluster parent-graph neighbors at the frequent
  // rate, out-of-cluster ones and a few lagging non-neighbors at the rare
  // one. gapfill_to(j) is one round's fill toward j.
  void gapfill_round_neighbor(util::TimePoint now, Effects& fx);
  void gapfill_round_far(util::TimePoint now, Effects& fx);
  void gapfill_to(util::TimePoint now, HostId j, Effects& fx);

  // Parent/child timeouts, lapsed-offer sweep and pruning.
  void maintenance_round(util::TimePoint now, Effects& fx);
  // The parent fell silent: drop it and look for a new one at once.
  void parent_timeout(util::TimePoint now, Effects& fx);

  // Seeds CLUSTER_i (static cluster knowledge mode, or "some information
  // to the contrary" at initialization — Section 4.2).
  void seed_cluster(const std::vector<HostId>& cluster) {
    state_.set_cluster(cluster);
  }
  // Starts the parent-liveness clock.
  void start(util::TimePoint now) { last_parent_heard_ = now; }
  void set_observer(ProtocolObserver* observer) { observer_ = observer; }
  // Drives the far gap-fill picks and BroadcastHost's phase jitter; draws
  // from both interleave in one fixed order, which the digests pin.
  [[nodiscard]] util::Rng& rng() { return rng_; }

  [[nodiscard]] HostId self() const { return state_.self(); }
  [[nodiscard]] HostId source() const { return source_; }
  [[nodiscard]] bool is_source() const { return self() == source_; }
  [[nodiscard]] const HostState& state() const { return state_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Seq last_broadcast_seq() const { return next_seq_ - 1; }
  [[nodiscard]] HostId pending_attach() const { return pending_attach_; }
  [[nodiscard]] std::size_t consecutive_attach_timeouts() const {
    return consecutive_attach_timeouts_;
  }
  // The record of j; nullptr when j is not among all_hosts or no record
  // has been written yet.
  [[nodiscard]] const PeerRecord* peer(HostId j) const;
  [[nodiscard]] const std::map<Seq, AuthTag>& auth_tags() const {
    return auth_tags_;
  }

 private:
  // --- message handlers -----------------------------------------------
  void handle_data(util::TimePoint now, HostId from, const DataMsg& m,
                   Effects& fx);
  void handle_info(HostId from, const InfoMsg& m);
  void handle_attach_request(util::TimePoint now, HostId from,
                             const AttachRequest& m, Effects& fx);
  void handle_attach_accept(util::TimePoint now, HostId from,
                            const AttachAccept& m, Effects& fx);

  // --- helpers -----------------------------------------------------------
  // True for the peers the frequent INFO round reports to.
  [[nodiscard]] bool intra_rate_peer(HostId j) const;
  void send(util::TimePoint now, HostId to, ProtocolMessage m, Effects& fx);
  // Builds a data message (attaching the piggybacked INFO when enabled).
  [[nodiscard]] DataMsg make_data(Seq seq, const Payload& body,
                                  bool gap_fill) const;
  void send_gapfill(util::TimePoint now, HostId to, Seq seq, Effects& fx);
  // Records that `seq` was just offered to `to` (any data send counts);
  // re-offers are suppressed until the suppress period lapses or the peer
  // reports an INFO set that still lacks the seq (see clear_refuted_offers).
  void note_offered(util::TimePoint now, HostId to, Seq seq);
  // Drops offers toward `from` that its freshly reported INFO refutes.
  void clear_refuted_offers(HostId from, const SeqSet& reported);
  // Live (unexpired) offers toward `j`, purging lapsed ones.
  [[nodiscard]] SeqSet recent_offers(util::TimePoint now, HostId j);
  void begin_attach(HostId candidate, const std::string& rule, Effects& fx);
  void detach_from_parent(util::TimePoint now, bool notify, bool timeout,
                          Effects& fx);
  void accept_message(util::TimePoint now, Seq seq, const Payload& body,
                      bool was_new_max, HostId from, Effects& fx);

  // The record of j, building the table on first use; nullptr when j is
  // not among all_hosts.
  PeerRecord* find_record(HostId j);
  // As find_record, for a j that must be among all_hosts.
  PeerRecord& record(HostId j);
  void build_records();

  HostId source_;
  Config config_;
  HostState state_;
  util::Rng rng_;
  ProtocolObserver* observer_{nullptr};

  Seq next_seq_{1};  // source only: next sequence number to assign

  // Attach handshake in flight (BroadcastHost owns its timer).
  HostId pending_attach_{kNoHost};
  // Timeouts since the last completed handshake; once past
  // Config::attach_retry_burst, retries wait for the periodic timer.
  std::size_t consecutive_attach_timeouts_{0};

  // Liveness bookkeeping.
  util::TimePoint last_parent_heard_{0};

  // Indexed by host rank (HostState::rank_of) like HostState's table, and
  // like it empty until first use.
  std::vector<PeerRecord> peers_;
  // gapfill_round_far's scratch list of lagging non-neighbors; sized to
  // all_hosts with peers_.
  std::vector<HostId> far_behind_;

  // Source tags of accepted messages (Config::auth_enabled): relays
  // forward the original tag verbatim — they cannot re-sign — so it must
  // be kept alongside the body. Pruned in lockstep with HostState.
  std::map<Seq, AuthTag> auth_tags_;

  Counters counters_;
};

}  // namespace rbcast::core
