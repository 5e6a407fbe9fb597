#include "core/host_state.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "util/rng.h"

namespace rbcast::core {
namespace {

std::vector<HostId> hosts(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

// Snapshot of a PeerSet view (or any HostId range) for comparisons.
template <typename Range>
std::vector<HostId> ids(const Range& range) {
  return {range.begin(), range.end()};
}

TEST(HostState, InitialConditionsMatchThePaper) {
  HostState s(HostId{2}, hosts(4));
  // "in the beginning each host assumes that it is in a cluster by itself"
  EXPECT_EQ(ids(s.cluster()), (std::vector<HostId>{HostId{2}}));
  EXPECT_FALSE(s.parent().valid());
  EXPECT_TRUE(s.info().empty());
  EXPECT_TRUE(s.children().empty());
}

TEST(HostState, RecordMessageStoresBodyOnce) {
  HostState s(HostId{0}, hosts(2));
  EXPECT_TRUE(s.record_message(3, "payload"));
  EXPECT_FALSE(s.record_message(3, "other"));
  ASSERT_NE(s.body_of(3), nullptr);
  EXPECT_EQ(*s.body_of(3), "payload");
  EXPECT_EQ(s.body_of(1), nullptr);
  EXPECT_TRUE(s.has_message(3));
}

TEST(HostState, MapOfSelfIsInfo) {
  HostState s(HostId{0}, hosts(2));
  s.record_message(1, "a");
  EXPECT_EQ(&s.map(HostId{0}), &s.info());
}

TEST(HostState, LearnInfoMergesMonotonically) {
  HostState s(HostId{0}, hosts(3));
  s.learn_info(HostId{1}, SeqSet::of({1, 2}));
  s.learn_info(HostId{1}, SeqSet::of({4}));
  EXPECT_EQ(s.map(HostId{1}).count(), 3u);
  EXPECT_EQ(s.map(HostId{1}).max_seq(), 4u);
  // Self-learning is ignored.
  s.learn_info(HostId{0}, SeqSet::of({9}));
  EXPECT_TRUE(s.info().empty());
}

TEST(HostState, LearnHasInsertsSingleSeq) {
  HostState s(HostId{0}, hosts(2));
  s.learn_has(HostId{1}, 7);
  EXPECT_TRUE(s.map(HostId{1}).contains(7));
}

TEST(HostState, UnknownHostMapIsEmpty) {
  HostState s(HostId{0}, hosts(3));
  EXPECT_TRUE(s.map(HostId{2}).empty());
}

TEST(HostState, CostBitRuleUpdatesCluster) {
  HostState s(HostId{0}, hosts(3));
  // Cheap delivery adds.
  s.update_cluster_from_cost_bit(HostId{1}, /*expensive=*/false);
  EXPECT_TRUE(s.in_cluster(HostId{1}));
  // Expensive delivery removes.
  s.update_cluster_from_cost_bit(HostId{1}, /*expensive=*/true);
  EXPECT_FALSE(s.in_cluster(HostId{1}));
  // Self never changes.
  s.update_cluster_from_cost_bit(HostId{0}, true);
  EXPECT_TRUE(s.in_cluster(HostId{0}));
}

TEST(HostState, SetClusterAlwaysIncludesSelf) {
  HostState s(HostId{0}, hosts(3));
  s.set_cluster({HostId{1}, HostId{2}});
  EXPECT_TRUE(s.in_cluster(HostId{0}));
  EXPECT_TRUE(s.in_cluster(HostId{1}));
}

TEST(HostState, ParentViewsAndOwnParent) {
  HostState s(HostId{0}, hosts(4));
  EXPECT_FALSE(s.parent_of(HostId{1}).valid());  // unknown -> NIL
  s.learn_parent(HostId{1}, HostId{2});
  EXPECT_EQ(s.parent_of(HostId{1}), HostId{2});
  s.set_parent(HostId{3});
  EXPECT_EQ(s.parent(), HostId{3});
  EXPECT_EQ(s.parent_of(HostId{0}), HostId{3});  // p_i[i] is own parent
  // learn_parent about self is ignored (own pointer is authoritative).
  s.learn_parent(HostId{0}, HostId{1});
  EXPECT_EQ(s.parent(), HostId{3});
}

TEST(HostState, ChildrenSetOperations) {
  HostState s(HostId{0}, hosts(4));
  s.add_child(HostId{1});
  s.add_child(HostId{1});
  s.add_child(HostId{0});  // self is never a child
  EXPECT_EQ(s.children().size(), 1u);
  EXPECT_TRUE(s.is_child(HostId{1}));
  s.remove_child(HostId{1});
  EXPECT_TRUE(s.children().empty());
}

TEST(HostState, NeighborsAreChildrenPlusParent) {
  HostState s(HostId{0}, hosts(5));
  s.add_child(HostId{1});
  s.add_child(HostId{2});
  EXPECT_EQ(s.neighbors().size(), 2u);
  s.set_parent(HostId{3});
  EXPECT_EQ(s.neighbors().size(), 3u);
  // Parent that is also listed as child is not duplicated.
  s.add_child(HostId{3});
  EXPECT_EQ(s.neighbors().size(), 3u);
}

TEST(HostState, AncestorWalkFollowsParentViews) {
  HostState s(HostId{0}, hosts(5));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{3});
  const auto walk = s.ancestors_of_self();
  EXPECT_FALSE(walk.cycle);
  EXPECT_EQ(walk.ancestors,
            (std::vector<HostId>{HostId{1}, HostId{2}, HostId{3}}));
}

TEST(HostState, AncestorWalkDetectsCycleThroughSelf) {
  HostState s(HostId{0}, hosts(4));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{0});  // back to self
  const auto walk = s.ancestors_of_self();
  EXPECT_TRUE(walk.cycle);
  EXPECT_EQ(walk.ancestors, (std::vector<HostId>{HostId{1}, HostId{2}}));
}

TEST(HostState, AncestorWalkToleratesForeignCycle) {
  // A stale view can contain a cycle that does not include self; the walk
  // must terminate without reporting a self-cycle.
  HostState s(HostId{0}, hosts(4));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{1});
  const auto walk = s.ancestors_of_self();
  EXPECT_FALSE(walk.cycle);
}

TEST(HostState, SafePrefixIsMinOverAllHosts) {
  HostState s(HostId{0}, hosts(3));
  for (Seq q = 1; q <= 5; ++q) s.record_message(q, "b");
  EXPECT_EQ(s.safe_prefix(), 0u);  // nothing known about hosts 1, 2
  s.learn_info(HostId{1}, SeqSet::contiguous(4));
  EXPECT_EQ(s.safe_prefix(), 0u);  // still nothing about host 2
  s.learn_info(HostId{2}, SeqSet::contiguous(5));
  EXPECT_EQ(s.safe_prefix(), 4u);  // min(5, 4, 5)
}

TEST(HostState, SafePrefixIgnoresHolesAboveThePrefix) {
  HostState s(HostId{0}, hosts(2));
  s.record_message(1, "b");
  s.record_message(3, "b");
  s.learn_info(HostId{1}, SeqSet::of({1, 2, 3}));
  EXPECT_EQ(s.safe_prefix(), 1u);  // own hole at 2
}

TEST(HostState, PruneDropsBodiesButKeepsContainment) {
  HostState s(HostId{0}, hosts(1));
  for (Seq q = 1; q <= 10; ++q) s.record_message(q, "b");
  s.prune(7);
  EXPECT_EQ(s.body_of(7), nullptr);
  ASSERT_NE(s.body_of(8), nullptr);
  EXPECT_TRUE(s.has_message(7));
  EXPECT_EQ(s.info().max_seq(), 10u);
}

TEST(HostState, OrderIsHostIdValueWithSourcePromotedToMaximum) {
  HostState s(HostId{0}, hosts(6), HostId{2});
  EXPECT_LT(s.order(HostId{1}), s.order(HostId{5}));
  // The broadcast source outranks every peer: leader consolidation
  // (attachment option (2)) must converge toward the permanent root.
  EXPECT_LT(s.order(HostId{5}), s.order(HostId{2}));
}

TEST(HostState, RejectsSelfNotInAllHosts) {
  EXPECT_THROW(HostState(HostId{9}, hosts(3)), std::invalid_argument);
}

// --- differential test against the ordered-container semantics ----------

// Test-local reference with the std::map / std::set representation the
// peer table replaced: what every accessor must keep answering.
struct ReferenceState {
  ReferenceState(HostId self_id, std::vector<HostId> hosts)
      : self(self_id), all(std::move(hosts)) {}

  HostId self;
  std::vector<HostId> all;
  SeqSet info;
  std::map<HostId, SeqSet> map;
  std::set<HostId> cluster{self};
  std::set<HostId> children;
  std::map<HostId, HostId> parent_view;
  HostId parent{kNoHost};

  const SeqSet& map_of(HostId j) const {
    static const SeqSet kEmpty;
    if (j == self) return info;
    auto it = map.find(j);
    return it != map.end() ? it->second : kEmpty;
  }
  HostId parent_of(HostId j) const {
    if (j == self) return parent;
    auto it = parent_view.find(j);
    return it != parent_view.end() ? it->second : kNoHost;
  }
  Seq safe_prefix() const {
    Seq prefix = info.contiguous_prefix();
    for (HostId j : all) {
      if (j != self) prefix = std::min(prefix, map_of(j).contiguous_prefix());
    }
    return prefix;
  }
  std::vector<HostId> neighbors() const {
    std::vector<HostId> out(children.begin(), children.end());
    if (parent.valid() && !children.contains(parent)) out.push_back(parent);
    return out;
  }
};

void expect_same(const HostState& s, const ReferenceState& ref,
                 const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(s.parent(), ref.parent);
  EXPECT_EQ(s.info(), ref.info);
  EXPECT_EQ(s.safe_prefix(), ref.safe_prefix());
  EXPECT_EQ(ids(s.cluster()), ids(ref.cluster));
  EXPECT_EQ(s.cluster().size(), ref.cluster.size());
  EXPECT_EQ(ids(s.children()), ids(ref.children));
  EXPECT_EQ(s.children().size(), ref.children.size());
  EXPECT_EQ(ids(s.neighbors()), ref.neighbors());
  EXPECT_EQ(s.neighbors().size(), ref.neighbors().size());
  for (HostId j : ref.all) {
    EXPECT_EQ(s.map(j), ref.map_of(j)) << j;
    EXPECT_EQ(s.parent_of(j), ref.parent_of(j)) << j;
    EXPECT_EQ(s.in_cluster(j), ref.cluster.contains(j)) << j;
    EXPECT_EQ(s.is_child(j), ref.children.contains(j)) << j;
  }
}

// Drives HostState and the reference through seeded random operation
// sequences over the four hosts `all` and compares them after every step.
void expect_matches_reference(const std::vector<HostId>& all, HostId source) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const HostId self = all[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    HostState s(self, all, source);
    ReferenceState ref{self, all};
    expect_same(s, ref, "initial, seed " + std::to_string(seed));

    auto any_host = [&] {
      return all[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    };
    auto any_parent = [&] {
      const auto pick = rng.uniform_int(0, 4);
      return pick == 4 ? kNoHost : all[static_cast<std::size_t>(pick)];
    };
    auto any_set = [&] {
      SeqSet out;
      const auto n = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < n; ++k) {
        out.insert(static_cast<Seq>(rng.uniform_int(1, 12)));
      }
      return out;
    };

    for (int step = 0; step < 300; ++step) {
      const HostId j = any_host();
      switch (rng.uniform_int(0, 8)) {
        case 0: {
          const SeqSet info = any_set();
          s.learn_info(j, info);
          if (j != self) ref.map[j].merge(info);
          break;
        }
        case 1: {
          const auto seq = static_cast<Seq>(rng.uniform_int(1, 12));
          s.learn_has(j, seq);
          if (j != self) ref.map[j].insert(seq);
          break;
        }
        case 2: {
          const HostId p = any_parent();
          s.learn_parent(j, p);
          if (j != self) ref.parent_view[j] = p;
          break;
        }
        case 3:
          s.add_child(j);
          if (j != self) ref.children.insert(j);
          break;
        case 4:
          s.remove_child(j);
          ref.children.erase(j);
          break;
        case 5: {
          const bool expensive = rng.uniform_int(0, 1) == 1;
          s.update_cluster_from_cost_bit(j, expensive);
          if (j != self) {
            if (expensive) {
              ref.cluster.erase(j);
            } else {
              ref.cluster.insert(j);
            }
          }
          break;
        }
        case 6: {
          std::vector<HostId> members;
          for (HostId h : all) {
            if (rng.uniform_int(0, 1) == 1) members.push_back(h);
          }
          s.set_cluster(members);
          ref.cluster = {members.begin(), members.end()};
          ref.cluster.insert(self);
          break;
        }
        case 7: {
          const HostId p = any_parent();
          s.set_parent(p);
          ref.parent = p;
          break;
        }
        default: {
          const auto seq = static_cast<Seq>(rng.uniform_int(1, 12));
          s.record_message(seq, "b");
          ref.info.insert(seq);
          break;
        }
      }
      expect_same(s, ref,
                  "seed " + std::to_string(seed) + " step " +
                      std::to_string(step));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HostState, MatchesOrderedContainerReferenceOnRandomSequences) {
  // Non-contiguous ids with the source (31) promoted above 64 in order();
  // the table is indexed by rank, so the gaps must stay invisible.
  expect_matches_reference({HostId{2}, HostId{7}, HostId{31}, HostId{64}},
                           HostId{31});
  // Ids 0..3 listed out of order: the rank is the id again, and the views
  // still walk in id order, not in all_hosts order.
  expect_matches_reference({HostId{3}, HostId{1}, HostId{0}, HostId{2}},
                           HostId{0});
}

TEST(HostState, HugeIdsNeedNoLargerTable) {
  // Ids come from configuration files, so any non-negative value is
  // valid. A table sized by id value would need 2^31 records here; the
  // rank-indexed one holds four, and the source still outranks INT32_MAX.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::vector<HostId> all{HostId{kMax}, HostId{0}, HostId{2000000000},
                                HostId{1}};
  HostState s(HostId{0}, all, HostId{1});
  EXPECT_LT(s.order(HostId{kMax}), s.order(HostId{1}));
  EXPECT_EQ(s.hosts_by_id(), (std::vector<HostId>{HostId{0}, HostId{1},
                                                  HostId{2000000000},
                                                  HostId{kMax}}));
  EXPECT_EQ(s.rank_of(HostId{kMax}), 3u);
  EXPECT_EQ(s.rank_of(HostId{5}), HostState::kNoRank);
  expect_matches_reference(all, HostId{1});
}

}  // namespace
}  // namespace rbcast::core
