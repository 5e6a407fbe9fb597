#include "core/host_protocol.h"

#include <algorithm>

#include "core/attachment.h"
#include "core/gap_filling.h"
#include "util/assert.h"
#include "util/logging.h"

namespace rbcast::core {

HostProtocol::HostProtocol(HostId self, HostId source,
                           std::vector<HostId> all_hosts, Config config,
                           util::Rng rng)
    : source_(source),
      config_(std::move(config)),
      state_(self, std::move(all_hosts), source),
      rng_(rng) {
  RBCAST_CHECK_ARG(source.valid(), "invalid source id");
}

Seq HostProtocol::broadcast(util::TimePoint now, std::string body,
                            Effects& fx) {
  RBCAST_ASSERT_MSG(is_source(), "broadcast() called on a non-source host");
  const Seq seq = next_seq_++;
  const Payload payload(body);
  if (config_.auth_enabled) {
    auth_tags_[seq] =
        make_auth_tag(config_.auth_secret, self(), seq, payload.view());
  }
  // "INFO_s ... gets updated every time a new broadcast message is
  // generated at the source", and "broadcast is initiated when the source
  // sends a message to its cluster neighbors" — in parent-graph terms, to
  // its children: the source accepts its own new maximum.
  accept_message(now, seq, payload, /*was_new_max=*/true, self(), fx);
  return seq;
}

void HostProtocol::on_delivery(util::TimePoint now,
                               const net::Delivery& delivery, Effects& fx) {
  // Every per-peer table is indexed by host id; a sender outside all_hosts
  // has no record, so it is dropped before anything is touched.
  PeerRecord* const peer = find_record(delivery.from);
  if (peer == nullptr) {
    ++counters_.unknown_sender_drops;
    return;
  }

  const auto* message = std::any_cast<ProtocolMessage>(&delivery.payload);
  if (message == nullptr) {
    // A payload that failed wire decoding (or a wiring bug in a test):
    // count and drop before any liveness or cluster bookkeeping — a
    // malformed datagram must not vouch for its claimed sender.
    ++counters_.decode_errors;
    return;
  }

  // Authentication gate (Config::auth_enabled): a data frame whose tag is
  // missing or does not verify is dropped here, before *any* bookkeeping —
  // a forged frame must not freshen liveness timers, flip cluster bits, or
  // smuggle in a piggybacked INFO report.
  if (config_.auth_enabled) {
    if (const auto* data = std::get_if<DataMsg>(message)) {
      if (!data->auth.has_value() ||
          !verify_auth_tag(config_.auth_secret, source_, data->seq,
                           data->body.view(), *data->auth)) {
        ++counters_.auth_rejects;
        return;
      }
    }
  }

  const HostId from = delivery.from;
  // "This set can be updated when a message (of any kind ...) is received
  // from another host j" — the cost-bit rule, unless cluster knowledge is
  // static or disabled.
  if (config_.cluster_knowledge == Config::ClusterKnowledge::kDynamic) {
    state_.update_cluster_from_cost_bit(from, delivery.expensive);
  }
  peer->last_heard = now;
  if (from == state_.parent()) last_parent_heard_ = now;

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DataMsg>) {
          handle_data(now, from, m, fx);
        } else if constexpr (std::is_same_v<T, InfoMsg>) {
          handle_info(from, m);
        } else if constexpr (std::is_same_v<T, AttachRequest>) {
          handle_attach_request(now, from, m, fx);
        } else if constexpr (std::is_same_v<T, AttachAccept>) {
          handle_attach_accept(now, from, m, fx);
        } else {
          static_assert(std::is_same_v<T, DetachNotice>);
          state_.remove_child(from);
        }
      },
      *message);
}

// --- data path --------------------------------------------------------

void HostProtocol::handle_data(util::TimePoint now, HostId from,
                               const DataMsg& m, Effects& fx) {
  // Piggybacked control state (Section 6) is processed like a standalone
  // INFO message, before any accept/discard decision.
  if (m.piggyback.has_value()) {
    handle_info(from, InfoMsg{m.piggyback->first, m.piggyback->second});
  }
  // Receiving a data message from j proves j has it.
  state_.learn_has(from, m.seq);

  if (state_.has_message(m.seq)) {
    // "A message is also discarded if the recipient host has previously
    // accepted it."
    ++counters_.duplicates_discarded;
    return;
  }
  if (is_source()) return;  // the source originates the stream; no gaps

  const bool new_max = m.seq > state_.info().max_seq();
  if (new_max && from != state_.parent()) {
    // "a host can accept a message sequence-numbered higher than any it
    // has received so far, only from its parent. If such a message arrives
    // from any other host, it is discarded."
    ++counters_.new_max_rejected;
    if (observer_ != nullptr) observer_->on_new_max_rejected(self(), from, m.seq);
    return;
  }
  // The tag verified in on_delivery() travels with the body: forwards and
  // gap fills re-attach the source's original signature.
  if (config_.auth_enabled && m.auth.has_value()) auth_tags_[m.seq] = *m.auth;
  accept_message(now, m.seq, m.body, new_max, from, fx);
}

void HostProtocol::accept_message(util::TimePoint now, Seq seq,
                                  const Payload& body, bool was_new_max,
                                  HostId from, Effects& fx) {
  const bool fresh = state_.record_message(seq, body);
  RBCAST_ASSERT(fresh);
  ++counters_.deliveries;
  if (observer_ != nullptr) {
    observer_->on_delivered(self(), seq);
    if (!was_new_max) observer_->on_gapfill_accepted(self(), from, seq);
  }
  fx.deliver(seq, body.view());

  if (was_new_max) {
    // "upon receipt of a broadcast message, a host sends it on to all its
    // children" (skipping children known to have it already).
    for (HostId child : state_.children()) {
      if (child == from) continue;
      if (state_.map(child).contains(seq)) continue;
      send(now, child, make_data(seq, body, /*gap_fill=*/false), fx);
      note_offered(now, child, seq);
      ++counters_.data_forwarded;
    }
  } else {
    // "When a host receives a gap filling message ..., it forwards it to
    // all those of its parent graph neighbors (its children and its
    // parent) that according to its MAP do not have it."
    for (HostId n : state_.neighbors()) {
      if (n == from) continue;
      if (state_.map(n).contains(seq)) continue;
      if (recent_offers(now, n).contains(seq)) continue;  // just offered it
      send(now, n, make_data(seq, body, /*gap_fill=*/true), fx);
      note_offered(now, n, seq);
      ++counters_.gapfills_sent;
      if (observer_ != nullptr) observer_->on_gapfill_relayed(self(), n, seq);
    }
  }
}

// --- control path ---------------------------------------------------------

void HostProtocol::handle_info(HostId from, const InfoMsg& m) {
  clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);
  // Reconcile CHILDREN with the sender's own claim. This is what makes the
  // parent-pointer exchange load-bearing: a lost AttachAccept or a lost
  // DetachNotice would otherwise leave the two ends disagreeing about the
  // edge — and a host whose parent does not list it as a child can never
  // receive new maxima.
  if (m.parent == self()) {
    state_.add_child(from);
  } else {
    state_.remove_child(from);
  }
}

void HostProtocol::handle_attach_request(util::TimePoint now, HostId from,
                                         const AttachRequest& m,
                                         Effects& fx) {
  clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.add_child(from);
  // The requester will set its parent pointer to us upon our accept.
  state_.learn_parent(from, self());
  send(now, from, AttachAccept{state_.info(), state_.parent()}, fx);

  // "the parent examines its new child's INFO set and forwards to the
  // child all those messages that the child is missing and that the
  // parent has."
  const SeqSet offered = recent_offers(now, from);
  for (Seq seq : plan_attach_backfill(state_, m.info,
                                      config_.attach_backfill_burst,
                                      &offered)) {
    send_gapfill(now, from, seq, fx);
  }
}

void HostProtocol::handle_attach_accept(util::TimePoint now, HostId from,
                                        const AttachAccept& m, Effects& fx) {
  clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);

  if (pending_attach_ == from) {
    fx.cancel_attach_timeout();
    pending_attach_ = kNoHost;

    const HostId old_parent = state_.parent();
    state_.set_parent(from);
    state_.remove_child(from);  // a host cannot be both parent and child
    last_parent_heard_ = now;
    consecutive_attach_timeouts_ = 0;  // contact: immediate retries re-armed
    ++counters_.attaches_completed;
    if (observer_ != nullptr) observer_->on_attached(self(), from);
    RBCAST_DEBUG(self() << " attached to " << from);

    // "The old parent, if any, is also notified of the change."
    if (old_parent.valid() && old_parent != from) {
      send(now, old_parent, DetachNotice{}, fx);
    }
  } else if (from != state_.parent()) {
    // A stale accept from an abandoned attempt: `from` now believes we are
    // its child. Correct its CHILDREN set.
    send(now, from, DetachNotice{}, fx);
  }
}

HostProtocol::PeerRecord* HostProtocol::find_record(HostId j) {
  if (peers_.empty()) build_records();
  const std::size_t rank = state_.rank_of(j);
  return rank < peers_.size() ? &peers_[rank] : nullptr;
}

HostProtocol::PeerRecord& HostProtocol::record(HostId j) {
  PeerRecord* peer = find_record(j);
  RBCAST_ASSERT_MSG(peer != nullptr, "host id not among all_hosts");
  return *peer;
}

const HostProtocol::PeerRecord* HostProtocol::peer(HostId j) const {
  const std::size_t rank = state_.rank_of(j);
  return rank < peers_.size() ? &peers_[rank] : nullptr;
}

void HostProtocol::build_records() {
  peers_.resize(state_.hosts_by_id().size());
  far_behind_.resize(state_.all_hosts().size());
}

void HostProtocol::attachment_round(util::TimePoint now, Effects& fx) {
  // "The procedure is run at all hosts but the source."
  if (is_source()) return;
  if (pending_attach_.valid()) return;  // handshake already in flight

  // Hosts whose handshake timed out stay excluded until failed_until.
  const ExclusionFn excluded = [this, now](HostId j) {
    const std::size_t rank = state_.rank_of(j);
    return rank < peers_.size() && peers_[rank].failed_until > now;
  };
  auto decision =
      run_attachment(state_, excluded, config_.parent_switch_margin);

  if (decision.action == AttachmentDecision::Action::kBreakCycle) {
    ++counters_.cycles_broken;
    if (observer_ != nullptr) observer_->on_cycle_broken(self());
    RBCAST_INFO(self() << " breaking single-cluster cycle");
    detach_from_parent(now, /*notify=*/true, /*timeout=*/false, fx);
    // "... shall detach from its parent and go through the appropriate
    // options for finding a new one" — i.e. case I, immediately.
    decision = run_attachment(state_, excluded, config_.parent_switch_margin);
  }
  if (decision.action == AttachmentDecision::Action::kAttach) {
    RBCAST_DEBUG(self() << " attachment rule " << decision.rule << " -> "
                        << decision.candidate);
    ++counters_.attempts_by_rule[decision.rule];
    begin_attach(decision.candidate, decision.rule, fx);
  }
}

void HostProtocol::begin_attach(HostId candidate, const std::string& rule,
                                Effects& fx) {
  RBCAST_ASSERT(!pending_attach_.valid());
  pending_attach_ = candidate;
  ++counters_.attach_attempts;
  if (observer_ != nullptr) {
    observer_->on_attach_requested(self(), candidate, rule);
  }
  // An AttachRequest carries no piggyback, so no time stamp is written.
  fx.send(candidate, AttachRequest{state_.info()});
  fx.arm_attach_timeout(candidate);
}

void HostProtocol::on_attach_timeout(util::TimePoint now, HostId candidate,
                                     Effects& fx) {
  if (pending_attach_ != candidate) return;  // accept raced the timer
  pending_attach_ = kNoHost;
  ++counters_.attach_timeouts;
  if (observer_ != nullptr) observer_->on_attach_timeout(self(), candidate);
  // "If the acknowledgment to this message times out, the procedure is
  // repeated to find another candidate with which the given host can
  // communicate." Exclude the silent one for a few rounds and retry now —
  // but only a bounded number of times in a row. When *every* candidate is
  // silent (total partition), back-to-back immediate retries would keep
  // cycling through the candidate list at rate 1/attach_ack_timeout
  // (exclusions expire faster than a large list is exhausted), so after
  // `attach_retry_burst` consecutive timeouts the retries fall back to the
  // periodic attachment timer.
  record(candidate).failed_until = now + 4 * config_.attach_period;
  ++consecutive_attach_timeouts_;
  if (consecutive_attach_timeouts_ <= config_.attach_retry_burst) {
    attachment_round(now, fx);
  }
}

void HostProtocol::detach_from_parent(util::TimePoint now, bool notify,
                                      bool timeout, Effects& fx) {
  const HostId old_parent = state_.parent();
  state_.set_parent(kNoHost);
  if (observer_ != nullptr && old_parent.valid()) {
    observer_->on_detached(self(), old_parent, timeout);
  }
  if (notify && old_parent.valid()) {
    send(now, old_parent, DetachNotice{}, fx);
  }
}

bool HostProtocol::intra_rate_peer(HostId j) const {
  return state_.in_cluster(j) || state_.is_child(j) || j == state_.parent();
}

void HostProtocol::info_round_intra(util::TimePoint now, Effects& fx) {
  // Frequent exchange with cluster members and parent-graph neighbors, in
  // ascending id order.
  for (const HostId j : state_.hosts_by_id()) {
    if (j != self() && intra_rate_peer(j)) send_info(now, j, fx);
  }
}

void HostProtocol::info_round_inter(util::TimePoint now, Effects& fx) {
  // Rare exchange with everyone else; this is what lets remote hosts
  // discover who is ahead (attachment options I.3/II.3) and what feeds
  // non-neighbor gap filling.
  // Cluster members and parent-graph neighbors hear from the frequent
  // round instead.
  for (HostId j : state_.all_hosts()) {
    if (j != self() && !intra_rate_peer(j)) send_info(now, j, fx);
  }
}

void HostProtocol::send_info(util::TimePoint now, HostId j, Effects& fx) {
  // A data message that piggybacked our INFO to a frequent-round peer
  // within the last round already did this round's job (Section 6) — skip
  // the standalone report.
  if (config_.piggyback_info && intra_rate_peer(j)) {
    const auto& piggybacked = record(j).last_piggyback;
    if (piggybacked.has_value() &&
        now - *piggybacked < config_.info_period_intra) {
      return;
    }
  }
  send(now, j, InfoMsg{state_.info(), state_.parent()}, fx);
}

void HostProtocol::gapfill_round_neighbor(util::TimePoint now, Effects& fx) {
  for (HostId n : state_.neighbors()) {
    // Out-of-cluster peers are filled by the far round.
    if (state_.in_cluster(n)) gapfill_to(now, n, fx);
  }
}

void HostProtocol::gapfill_round_far(util::TimePoint now, Effects& fx) {
  // Out-of-cluster parent-graph neighbors fill at this lower rate ("less
  // frequently for the members of different clusters"). They are filled
  // every round: a child depends on *us* for new maxima, so nobody else
  // can do this job.
  for (HostId n : state_.neighbors()) {
    if (!state_.in_cluster(n)) gapfill_to(now, n, fx);
  }
  if (!config_.nonneighbor_gapfill) return;

  // Non-neighbors (the Section 4.4 extension): any up-to-date host can
  // fill them, so each host serves only a small random subset per round —
  // see Config::far_fill_targets for why. The lagging ones are listed in
  // all_hosts order in a scratch buffer sized with the peer records.
  if (peers_.empty()) build_records();
  std::size_t behind = 0;
  for (HostId j : state_.all_hosts()) {
    if (j == self() || state_.is_child(j) || j == state_.parent()) continue;
    const SeqSet offered = recent_offers(now, j);
    if (!plan_far_gapfill(state_, j, 1, &offered).empty()) {
      far_behind_[behind++] = j;
    }
  }
  std::size_t budget = std::min(config_.far_fill_targets, behind);
  while (budget-- > 0 && behind > 0) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(behind) - 1));
    const HostId j = far_behind_[pick];
    // Remove the pick, keeping the rest in order.
    std::copy(far_behind_.begin() + static_cast<std::ptrdiff_t>(pick) + 1,
              far_behind_.begin() + static_cast<std::ptrdiff_t>(behind),
              far_behind_.begin() + static_cast<std::ptrdiff_t>(pick));
    --behind;
    gapfill_to(now, j, fx);
  }
}

void HostProtocol::gapfill_to(util::TimePoint now, HostId j, Effects& fx) {
  // Parent-graph neighbors get the neighbor plan; anyone else the
  // non-neighbor plan (the Section 4.4 extension).
  const SeqSet offered = recent_offers(now, j);
  const bool child = state_.is_child(j);
  const auto plan =
      child || j == state_.parent()
          ? plan_neighbor_gapfill(state_, j, child, config_.gapfill_burst,
                                  &offered)
          : plan_far_gapfill(state_, j, config_.gapfill_burst, &offered);
  for (Seq seq : plan) send_gapfill(now, j, seq, fx);
}

void HostProtocol::maintenance_round(util::TimePoint now, Effects& fx) {
  // Parent liveness: "time out on a parent that fails to send messages
  // such as the ones containing its INFO set ... the host sets its parent
  // pointer to NIL" and immediately looks for a new parent.
  if (state_.parent().valid() &&
      now - last_parent_heard_ > config_.parent_timeout) {
    parent_timeout(now, fx);
  }

  // Child liveness (engineering necessity; see Config::child_timeout).
  std::vector<HostId> stale;
  for (HostId child : state_.children()) {
    if (now - record(child).last_heard > config_.child_timeout) {
      stale.push_back(child);
    }
  }
  for (HostId child : stale) state_.remove_child(child);

  // Lapsed-offer sweep: keeps the optimistic-offer table bounded even for
  // peers no planner asks about anymore (e.g. removed children).
  for (PeerRecord& peer : peers_) {
    std::erase_if(peer.offered,
                  [now](const auto& kv) { return kv.second <= now; });
  }

  // Section 6 pruning: discard state for the prefix every host is known to
  // have.
  if (config_.enable_pruning) {
    const Seq safe = state_.safe_prefix();
    if (safe > state_.info().prune_watermark()) {
      state_.prune(safe);
      // Tags live exactly as long as the bodies they sign.
      auth_tags_.erase(auth_tags_.begin(), auth_tags_.upper_bound(safe));
    }
  }
}

void HostProtocol::parent_timeout(util::TimePoint now, Effects& fx) {
  ++counters_.parent_timeouts;
  RBCAST_INFO(self() << " parent " << state_.parent() << " timed out");
  detach_from_parent(now, /*notify=*/false, /*timeout=*/true, fx);
  attachment_round(now, fx);
}

// --- send helpers -----------------------------------------------------

void HostProtocol::send(util::TimePoint now, HostId to, ProtocolMessage m,
                        Effects& fx) {
  // A piggybacked INFO set freshens the peer like a standalone report;
  // remember when so the next intra-cluster INFO round can skip it.
  if (const auto* data = std::get_if<DataMsg>(&m);
      data != nullptr && data->piggyback.has_value()) {
    record(to).last_piggyback = now;
  }
  fx.send(to, std::move(m));
}

DataMsg HostProtocol::make_data(Seq seq, const Payload& body,
                                bool gap_fill) const {
  DataMsg m{seq, body, gap_fill, std::nullopt, std::nullopt};
  if (config_.piggyback_info) {
    m.piggyback = std::make_pair(state_.info(), state_.parent());
  }
  if (config_.auth_enabled) {
    auto it = auth_tags_.find(seq);
    if (it != auth_tags_.end()) m.auth = it->second;
  }
  return m;
}

void HostProtocol::send_gapfill(util::TimePoint now, HostId to, Seq seq,
                                Effects& fx) {
  const Payload* body = state_.body_of(seq);
  RBCAST_ASSERT(body != nullptr);
  send(now, to, make_data(seq, *body, /*gap_fill=*/true), fx);
  note_offered(now, to, seq);
  ++counters_.gapfills_sent;
  if (observer_ != nullptr) observer_->on_gapfill_offered(self(), to, seq);
}

void HostProtocol::note_offered(util::TimePoint now, HostId to, Seq seq) {
  record(to).offered[seq] = now + config_.gapfill_suppress_period;
}

void HostProtocol::clear_refuted_offers(HostId from, const SeqSet& reported) {
  // `reported` is a full INFO snapshot straight from `from`. Any offered
  // seq it still lacks was lost (or is still in flight — at worst one
  // spurious re-offer): drop the suppression so the next round re-sends
  // without waiting for the time-based expiry. This is what keeps the
  // suppression from delaying genuine loss recovery.
  std::erase_if(record(from).offered,
                [&](const auto& kv) { return !reported.contains(kv.first); });
}

SeqSet HostProtocol::recent_offers(util::TimePoint now, HostId j) {
  SeqSet live;
  auto& per_seq = record(j).offered;
  for (auto it = per_seq.begin(); it != per_seq.end();) {
    if (it->second <= now) {
      it = per_seq.erase(it);  // lapsed: re-offers allowed again
    } else {
      live.insert(it->first);
      ++it;
    }
  }
  return live;
}

}  // namespace rbcast::core
