// The complete communication subnetwork, as the hosts see it.
//
// Ties together links, servers and routing into the service interface the
// paper postulates: a host can request delivery of a message to a single
// destination, and a received message carries the cost bit. Everything else
// — loss, duplication, reordering, link failures, routing transients — is
// invisible to the application, exactly as assumed in Section 2.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"
#include "net/message.h"
#include "net/routing.h"
#include "net/server.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace rbcast::net {

struct NetConfig {
  // Delay between a link state change and routes reflecting it.
  sim::Duration convergence_lag{sim::milliseconds(200)};
  // Per-hop uniform random extra delay in [0, jitter_max]; produces the
  // out-of-order arrivals the paper's failure model includes.
  sim::Duration jitter_max{sim::microseconds(500)};
  // Hop budget; loops during routing transients die here.
  int ttl{64};
  // Finite output buffering: a packet whose serialization backlog on a
  // link direction would exceed this is tail-dropped (real servers do not
  // queue unboundedly). Generous default so only genuine congestion
  // collapse triggers it.
  sim::Duration max_queue_delay{sim::seconds(60)};
  // Fixed per-datagram framing cost (UDP/IP-style headers) added to every
  // transmission's byte charge. 0 — the default, and what the determinism
  // digests are pinned under — models the pre-batching world where only
  // payload bytes count; the overload benchmarks set ~28 so that
  // coalescing many small frames into one datagram actually amortizes
  // something, as it does on real networks.
  std::size_t per_packet_overhead_bytes{0};
};

class Network {
 public:
  Network(sim::Simulator& simulator, const topo::Topology& topology,
          NetConfig config, const util::RngFactory& rngs);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- host side ----------------------------------------------------------
  //
  // The raw service under transport::SimTransport, which is how protocol
  // hosts reach it: SimTransport::attach registers the upcall and hands
  // the host an endpoint that calls send().

  // Registers (or replaces) the delivery upcall for `host`. Must be called
  // before any message addressed to it is sent.
  void register_host(HostId host, DeliveryFn deliver);

  // Requests unicast delivery of `payload` from `from` to `to`;
  // `trace_id` (0 = untraced) rides on the Delivery.
  void send(HostId from, HostId to, std::any payload, std::size_t bytes,
            std::string kind, TraceId trace_id);

  // --- fault control (used by FaultPlan) -----------------------------------

  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const;

  // Bumped on every effective link state change; lets observers cache
  // cluster/connectivity computations between changes.
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }

  // --- ground truth queries (metrics, tests, benches — NOT the protocol) ---

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] std::vector<std::vector<HostId>> clusters() const;
  [[nodiscard]] std::vector<int> host_cluster_index() const;
  [[nodiscard]] bool same_cluster(HostId x, HostId y) const;
  [[nodiscard]] bool connected(HostId x, HostId y) const;

  [[nodiscard]] Routing& routing() { return routing_; }
  [[nodiscard]] const Server& server(ServerId id) const;

  // Installs the metrics observer (nullptr to remove).
  void set_observer(NetObserver* observer) { observer_ = observer; }

  // Packets currently crossing a link.
  [[nodiscard]] std::size_t packets_in_flight() const;
  // Packet slots allocated, in flight + free: the pool never shrinks, so
  // this is the peak in-flight count.
  [[nodiscard]] std::size_t packet_pool_size() const { return pool_.size(); }

 private:
  struct Packet {
    Delivery d;
    ServerId at{kNoServer};
    int ttl{0};
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // A pooled packet. A packet keeps its slot from send() to delivery or
  // drop and is updated in place at every hop; the arrival event captures
  // only {this, slot}, which fits std::function's small buffer. Free slots
  // form an intrusive list through next_free.
  struct InFlight {
    Packet packet;
    LinkId link{kNoLink};  // the link being crossed; kNoLink otherwise
    bool to_host{false};   // crossing the destination's access link
    util::EventId arrival{};
    std::uint32_t next_free{kNoSlot};
  };

  LinkState& link_state(LinkId id);
  [[nodiscard]] const LinkState& link_state(LinkId id) const;
  [[nodiscard]] std::uint32_t acquire_slot();
  [[nodiscard]] std::uint32_t grow_pool();
  void release_slot(std::uint32_t slot);
  // The arrival event of a pooled packet: the far end of its link.
  void land(std::uint32_t slot);
  void arrive_at_server(std::uint32_t slot);
  void deliver_to_host(std::uint32_t slot);
  void hand_to_host(std::uint32_t slot);
  // Sends the packet in `slot` over `link` per `tx`, plus a copy when the
  // link duplicated the transmission.
  void launch(std::uint32_t slot, LinkId link, const LinkState::TxResult& tx,
              bool to_host);
  // Drops the packet in `slot`, silently to the hosts: only the observer
  // hears of it.
  void discard(std::uint32_t slot, DropReason reason);
  [[nodiscard]] sim::Duration jitter();

  // Schedules the arrival of the packet in `slot` after `delay`, tied to
  // `link`: if the link goes down first, the event is cancelled — a
  // failing link loses everything in flight on it.
  void schedule_on_link(std::uint32_t slot, LinkId link, sim::Duration delay,
                        bool to_host);

  sim::Simulator& simulator_;
  const topo::Topology& topology_;
  NetConfig config_;
  NetObserver* observer_{nullptr};

  std::vector<LinkState> links_;
  Routing routing_;
  std::vector<Server> servers_;
  std::vector<DeliveryFn> deliver_;
  util::Rng jitter_rng_;
  std::uint64_t epoch_{0};
  std::vector<InFlight> pool_;
  std::uint32_t free_head_{kNoSlot};
};

}  // namespace rbcast::net
