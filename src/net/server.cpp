#include "net/server.h"

namespace rbcast::net {

Server::Server(ServerId id, const topo::Topology& topology,
               const Routing& routing)
    : id_(id), routing_(&routing) {
  for (LinkId lid : topology.trunk_links_of(id)) {
    const topo::LinkSpec& l = topology.link(lid);
    links_by_neighbor_[l.other_end(id)].push_back(lid);
  }
}

Server::ForwardChoice Server::choose_link(
    ServerId dst_server, std::span<const LinkState> links) const {
  ForwardChoice choice;
  const ServerId hop = routing_->next_hop(id_, dst_server);
  if (!hop.valid()) return choice;
  choice.had_route = true;
  auto it = links_by_neighbor_.find(hop);
  if (it == links_by_neighbor_.end()) return choice;
  for (LinkId lid : it->second) {
    if (links[static_cast<std::size_t>(lid.value)].up()) {
      choice.link = lid;
      return choice;
    }
  }
  return choice;
}

}  // namespace rbcast::net
