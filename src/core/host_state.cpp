#include "core/host_state.h"

#include <algorithm>
#include <functional>

#include "util/assert.h"

namespace rbcast::core {

namespace {
const SeqSet kEmptySet{};
}

HostState::HostState(HostId self, std::vector<HostId> all_hosts,
                     HostId source)
    : self_(self), all_hosts_(std::move(all_hosts)), source_(source) {
  RBCAST_CHECK_ARG(self.valid(), "invalid self id");
  RBCAST_CHECK_ARG(
      std::find(all_hosts_.begin(), all_hosts_.end(), self) != all_hosts_.end(),
      "self must be among all_hosts");
  for (HostId h : all_hosts_) {
    RBCAST_CHECK_ARG(h.valid(), "invalid host id in all_hosts");
  }
  if (std::adjacent_find(all_hosts_.begin(), all_hosts_.end(),
                         std::greater_equal<>()) != all_hosts_.end()) {
    sorted_hosts_ = all_hosts_;
    std::sort(sorted_hosts_.begin(), sorted_hosts_.end());
    sorted_hosts_.erase(
        std::unique(sorted_hosts_.begin(), sorted_hosts_.end()),
        sorted_hosts_.end());
  }
  const std::vector<HostId>& by_id = hosts_by_id();
  host_count_ = by_id.size();
  dense_ids_ = static_cast<std::size_t>(by_id.back().value) + 1 == host_count_;
  source_order_ = std::int64_t{by_id.back().value} + 1;
  // "CLUSTER_i is initialized to {i}, i.e., in the beginning each host
  // assumes that it is in a cluster by itself." The peer table that holds
  // the bit is built on first write; until then in_cluster() answers {i}.
}

std::size_t HostState::rank_by_search(HostId j) const {
  const std::vector<HostId>& by_id = hosts_by_id();
  const auto it = std::lower_bound(by_id.begin(), by_id.end(), j);
  if (it == by_id.end() || *it != j) return kNoRank;
  return static_cast<std::size_t>(it - by_id.begin());
}

void HostState::build_table() {
  peers_.resize(host_count_);
  Peer& me = peers_[rank_of(self_)];
  me.in_cluster = true;
  me.parent = parent_of_self_;
}

void HostState::paranoid_sweep() const {
#if defined(RBCAST_PARANOID)
  // "CLUSTER_i always contains i"; a host is never its own child; self's
  // p entry mirrors the own parent pointer; each peer bit matches what
  // the cluster()/children() views yield, and the cached sizes match the
  // bits; every stored body is recorded in INFO.
  RBCAST_ASSERT(in_cluster(self_));
  RBCAST_ASSERT(!is_child(self_));
  if (peers_.empty()) {
    RBCAST_ASSERT(!parent_of_self_.valid());
    RBCAST_ASSERT(cluster_size_ == 1 && children_size_ == 0);
  } else {
    RBCAST_ASSERT(peers_.size() == host_count_);
    RBCAST_ASSERT(peers_[rank_of(self_)].parent == parent_of_self_);
  }
  auto cluster_it = cluster().begin();
  auto child_it = children().begin();
  std::size_t cluster_bits = 0;
  std::size_t child_bits = 0;
  for (std::size_t rank = 0; rank < peers_.size(); ++rank) {
    const HostId h = hosts_by_id()[rank];
    if (peers_[rank].in_cluster) {
      RBCAST_ASSERT_MSG(*cluster_it++ == h, "cluster() disagrees with bits");
      ++cluster_bits;
    }
    if (peers_[rank].is_child) {
      RBCAST_ASSERT_MSG(*child_it++ == h, "children() disagrees with bits");
      ++child_bits;
    }
  }
  if (!peers_.empty()) {
    RBCAST_ASSERT(cluster_it == cluster().end());
    RBCAST_ASSERT(cluster_bits == cluster_size_);
  }
  RBCAST_ASSERT(child_it == children().end());
  RBCAST_ASSERT(child_bits == children_size_);
  for (const auto& [seq, body] : bodies_) {
    RBCAST_ASSERT_MSG(info_.contains(seq), "body stored without INFO entry");
  }
#endif
}

bool HostState::record_message(Seq seq, Payload body) {
  if (!info_.insert(seq)) return false;
  bodies_.emplace(seq, std::move(body));
  check_invariants();
  return true;
}

const Payload* HostState::body_of(Seq seq) const {
  auto it = bodies_.find(seq);
  return it != bodies_.end() ? &it->second : nullptr;
}

void HostState::prune(Seq watermark) {
  info_.prune_below(watermark);
  bodies_.erase(bodies_.begin(), bodies_.upper_bound(watermark));
}

Seq HostState::safe_prefix() const {
  Seq prefix = info_.contiguous_prefix();
  for (HostId j : all_hosts_) {
    if (j == self_) continue;
    prefix = std::min(prefix, map(j).contiguous_prefix());
    if (prefix == 0) return 0;
  }
  return prefix;
}

const SeqSet& HostState::map(HostId j) const {
  if (j == self_) return info_;
  const Peer* p = find(j);
  return p != nullptr ? p->map : kEmptySet;
}

void HostState::learn_info(HostId j, const SeqSet& info) {
  if (j == self_) return;
  peer(j).map.merge(info);
}

void HostState::learn_has(HostId j, Seq seq) {
  if (j == self_) return;
  peer(j).map.insert(seq);
}

void HostState::set_in_cluster(Peer& p, bool in) {
  if (p.in_cluster == in) return;
  p.in_cluster = in;
  if (in) {
    ++cluster_size_;
  } else {
    --cluster_size_;
  }
}

void HostState::set_child(Peer& p, bool child) {
  if (p.is_child == child) return;
  p.is_child = child;
  if (child) {
    ++children_size_;
  } else {
    --children_size_;
  }
}

void HostState::update_cluster_from_cost_bit(HostId j, bool expensive) {
  if (j == self_) return;
  // Removing a host that was never added writes nothing (and so builds
  // no table).
  if (expensive && !in_cluster(j)) return;
  set_in_cluster(peer(j), !expensive);
}

void HostState::set_cluster(const std::vector<HostId>& cluster) {
  for (HostId h : cluster) {
    RBCAST_CHECK_ARG(rank_of(h) != kNoRank,
                     "cluster member must be among all_hosts");
  }
  if (peers_.empty()) build_table();
  for (Peer& p : peers_) set_in_cluster(p, false);
  for (HostId h : cluster) set_in_cluster(peer(h), true);
  set_in_cluster(peer(self_), true);
  check_invariants();
}

PeerSet HostState::cluster() const {
  return {*this, PeerSet::Bit::kCluster, host_count_, kNoHost,
          cluster_size_};
}

PeerSet HostState::children() const {
  return {*this, PeerSet::Bit::kChild, host_count_, kNoHost,
          children_size_};
}

PeerSet HostState::neighbors() const {
  const bool parent_tail =
      parent_of_self_.valid() && !is_child(parent_of_self_);
  return {*this, PeerSet::Bit::kChild, host_count_,
          parent_tail ? parent_of_self_ : kNoHost,
          children_size_ + (parent_tail ? 1 : 0)};
}

HostState::AncestorWalk HostState::ancestors_of_self() const {
  // Chains are short (tree depth), so repetitions are found by scanning
  // the walk itself rather than through a visited set.
  AncestorWalk walk;
  HostId cursor = parent_of_self_;
  while (cursor.valid()) {
    if (cursor == self_) {
      walk.cycle = true;
      return walk;
    }
    if (std::find(walk.ancestors.begin(), walk.ancestors.end(), cursor) !=
        walk.ancestors.end()) {
      // A cycle that does not pass through self (stale views); stop.
      return walk;
    }
    walk.ancestors.push_back(cursor);
    cursor = parent_of(cursor);
  }
  return walk;
}

}  // namespace rbcast::core
