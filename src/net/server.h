// A communication server (switch).
//
// Servers are *nonprogrammable*: all a server does is store-and-forward
// individually addressed packets along routes computed by the routing
// layer. There is deliberately no broadcast support, no duplication on
// behalf of the application, and no failure reporting — that is the entire
// premise of the paper.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "net/link.h"
#include "net/routing.h"
#include "topo/topology.h"

namespace rbcast::net {

class Server {
 public:
  Server(ServerId id, const topo::Topology& topology, const Routing& routing);

  [[nodiscard]] ServerId id() const { return id_; }

  struct ForwardChoice {
    LinkId link{kNoLink};   // valid iff an operational link was found
    bool had_route{false};  // routing knew a next hop (link may be down)
  };

  // Picks the outgoing link toward `dst_server` per the current routes.
  // `links` is the network's live link-state table, indexed by link id.
  [[nodiscard]] ForwardChoice choose_link(
      ServerId dst_server, std::span<const LinkState> links) const;

  // --- accounting ---------------------------------------------------------
  void count_forwarded() { ++forwarded_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  ServerId id_;
  const Routing* routing_;
  // Incident trunks grouped by neighbor server (ordered by neighbor id;
  // within a neighbor, insertion order).
  std::map<ServerId, std::vector<LinkId>> links_by_neighbor_;
  std::uint64_t forwarded_{0};
};

}  // namespace rbcast::net
