// Per-host protocol state — the data structures of Section 4.2, kept free
// of any networking or timing so the attachment and gap-filling logic can
// be unit-tested in isolation.
//
//   INFO_i      — sequence numbers of all messages received by i
//   MAP_i[j]    — i's (possibly stale) view of INFO_j; MAP_i[i] == INFO_i
//   CLUSTER_i   — hosts i currently believes share its cluster
//   CHILDREN_i  — i's children in the host parent graph
//   p_i[j]      — i's view of j's parent; p_i[i] is i's true parent
//   order(i)    — the static linear ordering over all hosts
//
// MAP_i[j], p_i[j] and the CLUSTER_i / CHILDREN_i memberships are kept in
// one Peer record per host, in a table indexed by the host's rank among
// the id-sorted hosts: walking the table yields hosts in ascending id
// order — the order the protocol's set iterations (and with them the
// same-seed digests) depend on — and its size is the host count whatever
// the id values. When the ids are exactly 0..n-1 the rank is the id
// itself and every per-peer access is one indexed load; otherwise it is a
// binary search over the sorted ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/payload.h"
#include "util/assert.h"
#include "util/ids.h"
#include "util/seq_set.h"

namespace rbcast::core {

using util::Seq;
using util::SeqSet;

class HostState;

// A live, ascending-id view of one membership bit of HostState's peer
// table (CLUSTER_i or CHILDREN_i), optionally followed by one extra host
// (neighbors() appends the parent). Iterating allocates nothing. The view
// reads the state as it is at each step; copy it into a container to keep
// a snapshot.
class PeerSet {
 public:
  enum class Bit : std::uint8_t { kCluster, kChild };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = HostId;
    using difference_type = std::ptrdiff_t;
    using pointer = const HostId*;
    using reference = HostId;

    iterator() = default;
    HostId operator*() const;
    iterator& operator++() {
      ++pos_;
      skip_non_members();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    friend class PeerSet;
    iterator(const HostState* state, Bit bit, std::size_t bound, HostId tail,
             std::size_t pos)
        : state_(state), bit_(bit), bound_(bound), tail_(tail), pos_(pos) {}
    // Advances pos_ (a host rank) to the next member; bound_ stands for
    // the tail, one past it for the end.
    void skip_non_members();

    const HostState* state_{nullptr};
    Bit bit_{Bit::kCluster};
    std::size_t bound_{0};
    HostId tail_{kNoHost};
    std::size_t pos_{0};
  };
  using const_iterator = iterator;
  using value_type = HostId;

  [[nodiscard]] iterator begin() const {
    iterator it(state_, bit_, bound_, tail_, 0);
    it.skip_non_members();
    return it;
  }
  [[nodiscard]] iterator end() const {
    return {state_, bit_, bound_, tail_, bound_ + 1};
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  friend class HostState;
  PeerSet(const HostState& state, Bit bit, std::size_t bound, HostId tail,
          std::size_t size)
      : state_(&state), bit_(bit), bound_(bound), tail_(tail), size_(size) {}

  const HostState* state_;
  Bit bit_;
  std::size_t bound_;   // the host count
  HostId tail_;         // yielded after the members when valid
  std::size_t size_;
};

class HostState {
 public:
  // `all_hosts` must contain `self`. Any fixed linear order satisfies the
  // paper's requirement; ours is the host id value with the broadcast
  // source promoted to the maximum. The promotion matters for liveness:
  // option (2) of the attachment procedure consolidates a cluster's
  // leaders under its greatest-order member, and the source — the one
  // permanent root, which never attaches — must therefore outrank its
  // cluster peers or a second leader in the source's cluster would be a
  // stable configuration whenever the stream is quiescent (option (1)
  // needs an INFO gap that only exists while a message is in flight).
  // Found by the chaos harness; see DESIGN.md Section 10.
  HostState(HostId self, std::vector<HostId> all_hosts,
            HostId source = kNoHost);

  [[nodiscard]] HostId self() const { return self_; }
  [[nodiscard]] const std::vector<HostId>& all_hosts() const {
    return all_hosts_;
  }
  // The hosts in ascending id order, without repeats; a host's position
  // here is its rank. all_hosts() itself when it is in that order already.
  [[nodiscard]] const std::vector<HostId>& hosts_by_id() const {
    return sorted_hosts_.empty() ? all_hosts_ : sorted_hosts_;
  }
  // Returned by rank_of for an id that is not among all_hosts.
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);
  // Position of j in hosts_by_id(), or kNoRank.
  [[nodiscard]] std::size_t rank_of(HostId j) const {
    if (dense_ids_) {
      const auto rank = static_cast<std::size_t>(j.value);
      return rank < host_count_ ? rank : kNoRank;
    }
    return rank_by_search(j);
  }

  // --- static order ------------------------------------------------------
  // Wide enough that the source outranks even the largest HostId value.
  [[nodiscard]] std::int64_t order(HostId h) const {
    return h == source_ ? source_order_ : h.value;
  }

  // --- INFO / message store ----------------------------------------------

  [[nodiscard]] const SeqSet& info() const { return info_; }

  // Records receipt of message `seq` with payload `body`. Returns true if
  // it was new (first receipt — exactly-once delivery to the application
  // keys off this).
  bool record_message(Seq seq, Payload body);

  [[nodiscard]] bool has_message(Seq seq) const { return info_.contains(seq); }
  // Payload of a stored message; nullptr if unknown or pruned away.
  [[nodiscard]] const Payload* body_of(Seq seq) const;

  // Drops state for the safe prefix 1..watermark (Section 6 pruning).
  void prune(Seq watermark);

  // Largest prefix 1..n known (via MAP) to be held by *every* host; the
  // safe pruning watermark. Hosts never heard from pin this at 0.
  [[nodiscard]] Seq safe_prefix() const;

  // --- MAP -----------------------------------------------------------------

  // View of INFO_j (INFO_i itself when j == self).
  [[nodiscard]] const SeqSet& map(HostId j) const;
  // Merges freshly learned knowledge about j's INFO set (INFO sets only
  // grow, so merging is always sound even with reordered control traffic).
  void learn_info(HostId j, const SeqSet& info);
  // Records that j provably has `seq` (we received a data message from j).
  void learn_has(HostId j, Seq seq);

  // --- CLUSTER ---------------------------------------------------------------

  // CLUSTER_i in ascending id order.
  [[nodiscard]] PeerSet cluster() const;
  [[nodiscard]] bool in_cluster(HostId j) const {
    // Before the table exists CLUSTER_i is still its initial {i}.
    const Peer* p = find(j);
    return p != nullptr ? p->in_cluster : j == self_;
  }
  // Applies the paper's cost-bit rule: a cheap delivery from j adds j to
  // CLUSTER_i, an expensive one removes it. No-op for self.
  void update_cluster_from_cost_bit(HostId j, bool expensive);
  // Overrides the cluster set (static cluster knowledge mode). Every
  // member must be among all_hosts.
  void set_cluster(const std::vector<HostId>& cluster);

  // --- parent graph ---------------------------------------------------------

  [[nodiscard]] HostId parent() const { return parent_of_self_; }
  void set_parent(HostId p) {
    parent_of_self_ = p;
    peer(self_).parent = p;
    check_invariants();
  }

  // p_i[j]: i's view of j's parent (kNoHost when unknown / none).
  [[nodiscard]] HostId parent_of(HostId j) const {
    if (j == self_) return parent_of_self_;
    const Peer* p = find(j);
    return p != nullptr ? p->parent : kNoHost;
  }
  void learn_parent(HostId j, HostId parent) {
    if (j == self_) return;
    peer(j).parent = parent;
    check_invariants();
  }

  // CHILDREN_i in ascending id order.
  [[nodiscard]] PeerSet children() const;
  void add_child(HostId j) {
    if (j == self_) return;
    set_child(peer(j), true);
  }
  void remove_child(HostId j) {
    if (is_child(j)) set_child(peer(j), false);
  }
  [[nodiscard]] bool is_child(HostId j) const {
    const Peer* p = find(j);
    return p != nullptr && p->is_child;
  }

  // Parent-graph neighbors: children in ascending id order, then the
  // current parent (if any, and not also a child).
  [[nodiscard]] PeerSet neighbors() const;

  // Ancestor chain of `start` according to p_i[]: follows parent pointers
  // until NIL, an unknown host, or a repetition. If the walk returns to
  // `start`, a cycle is reported along with its members.
  struct AncestorWalk {
    std::vector<HostId> ancestors;  // in order: parent, grandparent, ...
    bool cycle{false};              // true iff the walk re-reached `start`
  };
  [[nodiscard]] AncestorWalk ancestors_of_self() const;

 private:
  // What i knows about one host j.
  struct Peer {
    SeqSet map;              // MAP_i[j]; unused for j == i (INFO_i is)
    HostId parent{kNoHost};  // p_i[j]; for j == i, mirrors parent()
    bool in_cluster{false};  // j in CLUSTER_i
    bool is_child{false};    // j in CHILDREN_i
  };

  friend class PeerSet::iterator;

  // The record of j, or nullptr when the table is not built yet or j is
  // not a host. Reads of an absent record see the initial state.
  [[nodiscard]] const Peer* find(HostId j) const {
    const std::size_t rank = rank_of(j);
    return rank < peers_.size() ? &peers_[rank] : nullptr;
  }
  // The record of j for writing; builds the table on first use. j must be
  // among all_hosts.
  Peer& peer(HostId j) {
    if (peers_.empty()) build_table();
    const std::size_t rank = rank_of(j);
    RBCAST_ASSERT_MSG(rank < peers_.size(), "host id not among all_hosts");
    return peers_[rank];
  }
  [[nodiscard]] std::size_t rank_by_search(HostId j) const;
  // Whether the host of the given rank has the view's bit.
  [[nodiscard]] bool has_bit(std::size_t rank, PeerSet::Bit bit) const {
    // Before the table exists CLUSTER_i is still its initial {i}.
    if (rank >= peers_.size()) {
      return bit == PeerSet::Bit::kCluster && hosts_by_id()[rank] == self_;
    }
    return bit == PeerSet::Bit::kCluster ? peers_[rank].in_cluster
                                         : peers_[rank].is_child;
  }
  // Sizes the table to the host count. Deferred to the first write, as a
  // node-based map would: a host that is built but never hears from
  // anyone costs nothing.
  void build_table();
  void set_in_cluster(Peer& p, bool in);
  void set_child(Peer& p, bool child);

  // Full-structure consistency sweep after a mutation; compiled out
  // unless RBCAST_PARANOID.
  void check_invariants() const {
#if defined(RBCAST_PARANOID)
    paranoid_sweep();
#endif
  }
  void paranoid_sweep() const;

  HostId self_;
  std::vector<HostId> all_hosts_;
  HostId source_{kNoHost};
  // Sorted, de-duplicated copy of all_hosts_; empty when all_hosts_ is
  // strictly increasing already (every host builds a HostState, so set-up
  // would pay the copy n times).
  std::vector<HostId> sorted_hosts_;
  std::size_t host_count_{0};     // hosts_by_id().size()
  bool dense_ids_{false};         // hosts_by_id() is exactly 0..n-1
  std::int64_t source_order_{0};  // strictly above every peer's id

  SeqSet info_;
  std::map<Seq, Payload> bodies_;
  // Indexed by rank; empty until the first write (build_table).
  std::vector<Peer> peers_;
  std::size_t cluster_size_{1};  // |CLUSTER_i|; starts as {i}
  std::size_t children_size_{0};
  HostId parent_of_self_{kNoHost};
};

inline HostId PeerSet::iterator::operator*() const {
  return pos_ < bound_ ? state_->hosts_by_id()[pos_] : tail_;
}

inline void PeerSet::iterator::skip_non_members() {
  for (; pos_ < bound_; ++pos_) {
    if (state_->has_bit(pos_, bit_)) return;
  }
  if (pos_ == bound_ && !tail_.valid()) ++pos_;
}

}  // namespace rbcast::core
