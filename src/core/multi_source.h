// Multiple-source broadcast (Section 2).
//
// "Here, we study only a single-source broadcast problem. However, a
//  multiple-source broadcast can be performed reliably by running several
//  identical single-source protocols suggested in the present paper. From
//  the point of view of efficiency this option also appears to be a
//  reasonable one."
//
// MultiSourceNode does exactly that: it runs one independent BroadcastHost
// instance per source on each host, multiplexed over the host's single
// attachment to a transport::Transport. Each instance maintains its own
// host parent graph (rooted at its source), its own INFO/MAP state and its
// own periodic activities. Each instance's Transport is a small per-stream
// adapter: it forwards scheduler() to the real transport, tags outgoing
// messages with the owning source, and receives the deliveries the node
// demultiplexes to that stream.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/config.h"
#include "net/message.h"
#include "transport/transport.h"
#include "util/rng.h"

namespace rbcast::core {

// Wire envelope: which single-source protocol instance a message belongs
// to. (In a real deployment this is a demux field in the packet header.)
struct MuxMessage {
  HostId stream_source;
  ProtocolMessage inner;
};

class MultiSourceNode {
 public:
  // Called on first delivery of each (source, seq) pair at this host.
  using AppDeliverFn =
      std::function<void(HostId source, Seq seq, std::string_view body)>;

  // `sources` lists every broadcast stream in the system (each must be a
  // member of `all_hosts`); a protocol instance is created for each.
  // Attaches `self` to `transport` (which must outlive this object); the
  // destructor detaches.
  MultiSourceNode(transport::Transport& transport, HostId self,
                  std::vector<HostId> sources, std::vector<HostId> all_hosts,
                  const Config& config, const util::RngFactory& rngs,
                  AppDeliverFn app_deliver = {});
  ~MultiSourceNode();

  MultiSourceNode(const MultiSourceNode&) = delete;
  MultiSourceNode& operator=(const MultiSourceNode&) = delete;

  // Arms every instance's periodic activities.
  void start();

  // Broadcasts on this host's own stream. Precondition: is_source().
  Seq broadcast(std::string body);

  [[nodiscard]] HostId self() const { return self_; }
  [[nodiscard]] bool is_source() const { return streams_.contains(self()); }

  // The single-source protocol instance for `source`'s stream.
  [[nodiscard]] BroadcastHost& instance(HostId source);

  // First receipts handed to the application, summed over every stream.
  [[nodiscard]] std::size_t total_deliveries() const;

 private:
  // One stream: the Transport its BroadcastHost attaches to, and the host.
  class Stream;

  // Upcall of the real transport: demultiplexes to the owning stream.
  void on_delivery(const net::Delivery& delivery);

  transport::Transport& transport_;
  HostId self_;
  AppDeliverFn app_deliver_;
  // Keyed by source id; iteration order deterministic.
  std::map<HostId, std::unique_ptr<Stream>> streams_;
  // Set last in the constructor, once every stream exists.
  net::HostEndpoint* endpoint_{nullptr};
};

}  // namespace rbcast::core
