#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace rbcast::net {

Network::Network(sim::Simulator& simulator, const topo::Topology& topology,
                 NetConfig config, const util::RngFactory& rngs)
    : simulator_(simulator),
      topology_(topology),
      config_(config),
      routing_(simulator, topology,
               [this](LinkId id) { return link_up(id); },
               config.convergence_lag),
      jitter_rng_(rngs.stream("net.jitter")) {
  RBCAST_CHECK_ARG(config.ttl >= 1, "ttl must be at least 1");
  RBCAST_CHECK_ARG(config.jitter_max >= 0, "negative jitter");
  RBCAST_CHECK_ARG(config.max_queue_delay > 0,
                   "max_queue_delay must be positive");
  links_.reserve(topology.link_count());
  for (const topo::LinkSpec& spec : topology.links()) {
    links_.emplace_back(spec, rngs.stream("net.link", spec.id.value));
  }
  routing_.recompute_now();
  servers_.reserve(topology.server_count());
  for (const topo::ServerSpec& s : topology.servers()) {
    servers_.emplace_back(s.id, topology, routing_);
  }
  deliver_.resize(topology.host_count());
}

void Network::register_host(HostId host, DeliveryFn deliver) {
  RBCAST_CHECK_ARG(
      host.valid() && static_cast<std::size_t>(host.value) < deliver_.size(),
      "register_host: unknown host");
  RBCAST_CHECK_ARG(deliver != nullptr, "register_host: null delivery fn");
  deliver_[static_cast<std::size_t>(host.value)] = std::move(deliver);
}

LinkState& Network::link_state(LinkId id) {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < links_.size());
  return links_[static_cast<std::size_t>(id.value)];
}

const LinkState& Network::link_state(LinkId id) const {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < links_.size());
  return links_[static_cast<std::size_t>(id.value)];
}

sim::Duration Network::jitter() {
  if (config_.jitter_max <= 0) return 0;
  return jitter_rng_.uniform_int(0, config_.jitter_max);
}

std::uint32_t Network::acquire_slot() {
  const std::uint32_t slot = free_head_ != kNoSlot ? free_head_ : grow_pool();
  free_head_ = pool_[slot].next_free;
  pool_[slot].next_free = kNoSlot;
  return slot;
}

std::uint32_t Network::grow_pool() {
  // Cold: runs only until the pool reaches the peak in-flight count.
  RBCAST_ASSERT_MSG(pool_.size() < kNoSlot, "packet pool exhausted");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Network::release_slot(std::uint32_t slot) {
  InFlight& f = pool_[slot];
  f.link = kNoLink;
  f.packet.d.payload.reset();  // the payload dies with the packet
  f.next_free = free_head_;
  free_head_ = slot;
}

void Network::schedule_on_link(std::uint32_t slot, LinkId link,
                               sim::Duration delay, bool to_host) {
  InFlight& f = pool_[slot];
  f.link = link;
  f.to_host = to_host;
  f.arrival = simulator_.after(delay, [this, slot] { land(slot); });
}

void Network::launch(std::uint32_t slot, LinkId link,
                     const LinkState::TxResult& tx, bool to_host) {
  std::uint32_t twin = kNoSlot;
  if (tx.copies == 2) {
    // The only copy on the hop path: a spontaneous duplicate is a second,
    // independent packet. (acquire_slot may grow the pool, so index.)
    twin = acquire_slot();
    pool_[twin].packet = pool_[slot].packet;
  }
  schedule_on_link(slot, link, tx.arrival_offset[0] + jitter(), to_host);
  if (twin != kNoSlot) {
    schedule_on_link(twin, link, tx.arrival_offset[1] + jitter(), to_host);
  }
}

void Network::land(std::uint32_t slot) {
  InFlight& f = pool_[slot];
  f.link = kNoLink;  // off the wire: a later failure of the link spares it
  if (f.to_host) {
    hand_to_host(slot);
  } else {
    arrive_at_server(slot);
  }
}

void Network::send(HostId from, HostId to, std::any payload,
                   std::size_t bytes, std::string kind, TraceId trace_id) {
  RBCAST_CHECK_ARG(from.valid() && to.valid() && from != to,
                   "send: bad endpoints");
  const std::uint32_t slot = acquire_slot();
  Packet& p = pool_[slot].packet;
  p.d.from = from;
  p.d.to = to;
  p.d.expensive = false;
  p.d.payload = std::move(payload);
  p.d.bytes = bytes;
  p.d.kind = std::move(kind);
  p.d.sent_at = simulator_.now();
  p.d.hops = 0;
  p.d.trace_id = trace_id;
  p.at = kNoServer;
  p.ttl = config_.ttl;

  if (observer_ != nullptr) observer_->on_host_send(p.d);

  const topo::HostSpec& hs = topology_.host(from);
  LinkState& access = link_state(hs.access_link);
  if (!access.up()) {
    discard(slot, DropReason::kLinkDown);
    return;
  }
  if (access.queue_backlog(0, simulator_.now()) > config_.max_queue_delay) {
    discard(slot, DropReason::kQueueOverflow);
    return;
  }
  // Direction 0 of an access link is host -> server. Every hop charges
  // the payload plus the fixed per-datagram framing overhead.
  const auto tx = access.transmit(bytes + config_.per_packet_overhead_bytes,
                                  0, simulator_.now());
  if (observer_ != nullptr) {
    observer_->on_queue_backlog(hs.server, hs.access_link, tx.queue_wait);
  }
  if (tx.copies == 0) {
    discard(slot, DropReason::kRandomLoss);
    return;
  }
  p.at = hs.server;
  ++p.d.hops;
  launch(slot, hs.access_link, tx, /*to_host=*/false);
}

void Network::arrive_at_server(std::uint32_t slot) {
  Packet& p = pool_[slot].packet;
  const topo::HostSpec& dst = topology_.host(p.d.to);
  if (p.at == dst.server) {
    deliver_to_host(slot);
    return;
  }
  if (--p.ttl <= 0) {
    discard(slot, DropReason::kTtlExceeded);
    return;
  }
  Server& here = servers_[static_cast<std::size_t>(p.at.value)];
  const auto choice = here.choose_link(dst.server, links_);
  if (!choice.link.valid()) {
    discard(slot,
            choice.had_route ? DropReason::kLinkDown : DropReason::kNoRoute);
    return;
  }
  here.count_forwarded();

  LinkState& ls = link_state(choice.link);
  const int dir = ls.direction_from(p.at);
  if (ls.queue_backlog(dir, simulator_.now()) > config_.max_queue_delay) {
    discard(slot, DropReason::kQueueOverflow);
    return;
  }
  const auto tx = ls.transmit(p.d.bytes + config_.per_packet_overhead_bytes,
                              dir, simulator_.now());
  if (observer_ != nullptr) {
    observer_->on_queue_backlog(p.at, choice.link, tx.queue_wait);
    observer_->on_link_transmit(choice.link, p.d);
  }
  if (tx.copies == 0) {
    discard(slot, DropReason::kRandomLoss);
    return;
  }
  p.d.expensive =
      p.d.expensive || ls.spec().link_class == topo::LinkClass::kExpensive;
  p.at = ls.spec().other_end(p.at);
  ++p.d.hops;
  launch(slot, choice.link, tx, /*to_host=*/false);
}

void Network::deliver_to_host(std::uint32_t slot) {
  Packet& p = pool_[slot].packet;
  const topo::HostSpec& dst = topology_.host(p.d.to);
  LinkState& access = link_state(dst.access_link);
  if (!access.up()) {
    discard(slot, DropReason::kLinkDown);
    return;
  }
  // Direction 1 of an access link is server -> host.
  const auto tx = access.transmit(p.d.bytes, 1, simulator_.now());
  if (tx.copies == 0) {
    discard(slot, DropReason::kRandomLoss);
    return;
  }
  // Spontaneous duplication on the last hop delivers the message twice —
  // the protocol must cope, so keep both copies.
  ++p.d.hops;
  launch(slot, dst.access_link, tx, /*to_host=*/true);
}

void Network::hand_to_host(std::uint32_t slot) {
  // Out of the pool before the upcall: the host may send in response,
  // which can grow the pool and move every slot.
  const Delivery d = std::move(pool_[slot].packet.d);
  release_slot(slot);
  const auto idx = static_cast<std::size_t>(d.to.value);
  RBCAST_ASSERT_MSG(deliver_[idx] != nullptr,
                    "message addressed to unregistered host");
  if (observer_ != nullptr) observer_->on_deliver(d);
  deliver_[idx](d);
}

void Network::discard(std::uint32_t slot, DropReason reason) {
  const Delivery& d = pool_[slot].packet.d;
  RBCAST_DEBUG("drop " << d.kind << " " << d.from << "->" << d.to << ": "
                       << to_string(reason));
  if (observer_ != nullptr) observer_->on_drop(d, reason);
  release_slot(slot);
}

void Network::set_link_up(LinkId link, bool up) {
  LinkState& ls = link_state(link);
  if (ls.up() == up) return;
  ls.set_up(up);
  ++epoch_;
  if (!up) {
    // A failing link loses everything in flight on it, silently — the
    // paper's failure model ("messages can ... be lost at any point").
    for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
      if (pool_[slot].link != link) continue;
      simulator_.cancel(pool_[slot].arrival);
      release_slot(slot);
    }
  }
  if (!ls.spec().is_access) {
    routing_.notify_change();
  }
}

bool Network::link_up(LinkId link) const { return link_state(link).up(); }

std::size_t Network::packets_in_flight() const {
  return static_cast<std::size_t>(std::count_if(
      pool_.begin(), pool_.end(),
      [](const InFlight& f) { return f.link.valid(); }));
}

std::vector<std::vector<HostId>> Network::clusters() const {
  return topology_.clusters([this](LinkId id) { return link_up(id); });
}

std::vector<int> Network::host_cluster_index() const {
  return topology_.host_cluster_index(
      [this](LinkId id) { return link_up(id); });
}

bool Network::same_cluster(HostId x, HostId y) const {
  const auto idx = host_cluster_index();
  return idx[static_cast<std::size_t>(x.value)] ==
         idx[static_cast<std::size_t>(y.value)];
}

bool Network::connected(HostId x, HostId y) const {
  return topology_.connected(x, y, [this](LinkId id) { return link_up(id); });
}

const Server& Network::server(ServerId id) const {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < servers_.size());
  return servers_[static_cast<std::size_t>(id.value)];
}

}  // namespace rbcast::net
