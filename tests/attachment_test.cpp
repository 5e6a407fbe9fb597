// Unit tests for every option of the attachment procedure (Section 4.2) —
// each exercised in isolation against a hand-built HostState.
#include "core/attachment.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rbcast::core {
namespace {

std::vector<HostId> hosts(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

const ExclusionFn kNoExclusions;

// Excludes exactly the listed hosts.
ExclusionFn excluding(std::vector<HostId> hosts) {
  return [hosts = std::move(hosts)](HostId j) {
    return std::find(hosts.begin(), hosts.end(), j) != hosts.end();
  };
}

// Convenience: a state for host `self` among n hosts.
HostState make_state(int self, int n) { return HostState(HostId{self}, hosts(n)); }

// --- Case I: host without a parent -----------------------------------

TEST(Attachment, OptionI1AttachesToInClusterLeaderWithGreaterInfo) {
  HostState s = make_state(0, 3);
  s.set_cluster({HostId{0}, HostId{1}});
  s.record_message(1, "b");
  s.learn_info(HostId{1}, SeqSet::contiguous(3));
  // Host 1 has no known parent -> counts as a leader.
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kAttach);
  EXPECT_EQ(d.candidate, HostId{1});
  EXPECT_EQ(d.rule, "I.1");
}

TEST(Attachment, OptionI1RejectsNonLeader) {
  HostState s = make_state(0, 3);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  s.learn_info(HostId{1}, SeqSet::contiguous(3));
  // Host 1's parent (host 2) is in our cluster: not a leader, and no other
  // option applies (equal-order fails, out-of-cluster fails).
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_info(HostId{2}, SeqSet{});
  const auto d = run_attachment(s, kNoExclusions);
  // I.1 must not fire for host 1; but host 2 (unknown parent => leader,
  // greater info? no, empty). Expect I.2 to also not produce host 1.
  EXPECT_NE(d.candidate, HostId{1});
}

TEST(Attachment, OptionI2AttachesToEqualInfoHigherOrderLeader) {
  HostState s = make_state(1, 3);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  // All INFO sets empty (equal max). Host 2 has higher order than self(1),
  // host 0 lower; both are leaders.
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kAttach);
  EXPECT_EQ(d.candidate, HostId{2});
  EXPECT_EQ(d.rule, "I.2");
}

TEST(Attachment, OptionI2NeverPicksLowerOrder) {
  HostState s = make_state(2, 3);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  // Self has the highest order; no candidate anywhere.
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, OptionI3AttachesOutOfClusterWhenClusterExhausted) {
  HostState s = make_state(0, 3);
  // Cluster is just self; host 2 (different cluster) is ahead.
  s.learn_info(HostId{2}, SeqSet::contiguous(5));
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kAttach);
  EXPECT_EQ(d.candidate, HostId{2});
  EXPECT_EQ(d.rule, "I.3");
}

TEST(Attachment, OptionI3RequiresStrictlyGreaterInfo) {
  HostState s = make_state(0, 2);
  s.record_message(1, "b");
  s.learn_info(HostId{1}, SeqSet::contiguous(1));  // equal, different cluster
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, InClusterOptionsPreferredOverOutOfCluster) {
  HostState s = make_state(0, 3);
  s.set_cluster({HostId{0}, HostId{1}});
  s.learn_info(HostId{1}, SeqSet::contiguous(2));  // in-cluster leader, ahead
  s.learn_info(HostId{2}, SeqSet::contiguous(9));  // out-of-cluster, further
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "I.1");
  EXPECT_EQ(d.candidate, HostId{1});
}

// --- Case II: parent in a different cluster (self is a leader) ------------

TEST(Attachment, OptionII1ConsolidatesLeaders) {
  HostState s = make_state(0, 4);
  s.set_cluster({HostId{0}, HostId{1}});
  s.set_parent(HostId{3});  // out-of-cluster parent: case II
  s.learn_info(HostId{3}, SeqSet::contiguous(2));
  // Another in-cluster leader with greater INFO exists.
  s.learn_info(HostId{1}, SeqSet::contiguous(4));
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "II.1");
  EXPECT_EQ(d.candidate, HostId{1});
}

TEST(Attachment, OptionII2ConsolidatesEqualLeadersByOrder) {
  HostState s = make_state(0, 4);
  s.set_cluster({HostId{0}, HostId{1}});
  s.set_parent(HostId{3});
  s.record_message(1, "b");
  s.learn_info(HostId{1}, SeqSet::contiguous(1));  // equal max, higher order
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "II.2");
  EXPECT_EQ(d.candidate, HostId{1});
}

TEST(Attachment, OptionII2ConsolidatesUnderSourceDespiteLowerId) {
  // Chaos-harness regression: host 1 is a second leader in the source's
  // cluster with a fully caught-up INFO set. Host 0 (the source, never
  // attaches, lower id) must still win option (2) — the order promotes the
  // source to the maximum — or two leaders would persist through
  // quiescence and the parent graph never converges to a cluster tree.
  HostState s(HostId{1}, hosts(4), HostId{0});
  s.set_cluster({HostId{0}, HostId{1}});
  s.set_parent(HostId{3});  // out-of-cluster parent: case II
  s.record_message(1, "b");
  s.learn_info(HostId{0}, SeqSet::contiguous(1));  // source, equal max
  s.learn_info(HostId{3}, SeqSet::contiguous(1));
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "II.2");
  EXPECT_EQ(d.candidate, HostId{0});
}

TEST(Attachment, OptionII3SwitchesToPrompterParent) {
  HostState s = make_state(0, 4);
  s.set_parent(HostId{2});  // out-of-cluster (cluster is just self)
  s.learn_info(HostId{2}, SeqSet::contiguous(3));
  s.learn_info(HostId{3}, SeqSet::contiguous(5));  // ahead of our parent
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "II.3");
  EXPECT_EQ(d.candidate, HostId{3});
}

TEST(Attachment, OptionII3ComparesAgainstParentNotSelf) {
  HostState s = make_state(0, 4);
  s.set_parent(HostId{2});
  s.record_message(1, "b");  // self max = 1
  s.learn_info(HostId{2}, SeqSet::contiguous(6));  // parent well ahead
  s.learn_info(HostId{3}, SeqSet::contiguous(5));  // ahead of self, behind parent
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, OptionII3HonorsHysteresisMargin) {
  HostState s = make_state(0, 4);
  s.set_parent(HostId{2});
  s.learn_info(HostId{2}, SeqSet::contiguous(3));
  s.learn_info(HostId{3}, SeqSet::contiguous(5));  // +2 over parent
  EXPECT_EQ(run_attachment(s, kNoExclusions, /*margin=*/1).rule, "II.3");
  EXPECT_EQ(run_attachment(s, kNoExclusions, /*margin=*/2).action,
            AttachmentDecision::Action::kNone);
}

TEST(Attachment, StableLeaderTakesNoAction) {
  HostState s = make_state(0, 3);
  s.set_parent(HostId{2});
  s.learn_info(HostId{2}, SeqSet::contiguous(5));
  s.learn_info(HostId{1}, SeqSet::contiguous(5));  // equal elsewhere
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

// --- Case III: parent in the same cluster -------------------------------

TEST(Attachment, OptionIII1JumpsToLeaderAncestor) {
  HostState s = make_state(0, 5);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  s.set_parent(HostId{1});                 // in-cluster parent: case III
  s.learn_parent(HostId{1}, HostId{2});    // grandparent in cluster
  s.learn_parent(HostId{2}, HostId{4});    // great-grandparent outside:
  s.learn_info(HostId{2}, SeqSet::of({3}));  // host 2 is the cluster leader
  s.record_message(1, "b");
  s.record_message(2, "b");
  s.record_message(3, "b");  // equal max to leader
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.rule, "III.1");
  EXPECT_EQ(d.candidate, HostId{2});
}

TEST(Attachment, OptionIII1SkipsDirectParent) {
  // Already directly under the leader: nothing to do.
  HostState s = make_state(0, 3);
  s.set_cluster({HostId{0}, HostId{1}});
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});  // leader (parent outside cluster)
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, OptionIII1RequiresInfoAtLeastOwn) {
  HostState s = make_state(0, 4);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{3});  // host 2 is a leader ancestor
  s.record_message(1, "b");
  s.record_message(2, "b");
  s.learn_info(HostId{2}, SeqSet::contiguous(1));  // behind us
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

// --- cycle breaking -----------------------------------------------------

TEST(Attachment, HighestOrderOnSingleClusterCycleDetaches) {
  // Cycle 2 -> 0 -> 1 -> 2, all in one cluster. Host 2 has highest order.
  HostState s = make_state(2, 3);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  s.set_parent(HostId{0});
  s.learn_parent(HostId{0}, HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kBreakCycle);
  EXPECT_EQ(d.rule, "cycle");
}

TEST(Attachment, LowerOrderMembersLeaveCycleBreakingToHighest) {
  HostState s = make_state(0, 3);
  s.set_cluster({HostId{0}, HostId{1}, HostId{2}});
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{0});
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, MultiClusterCycleIsNotBrokenByCaseIII) {
  // Cycle spans clusters: the leader on it uses II.3 instead; a case-III
  // member must not apply the single-cluster rule.
  HostState s = make_state(2, 3);
  s.set_cluster({HostId{0}, HostId{2}});  // host 1 is in another cluster
  s.set_parent(HostId{0});
  s.learn_parent(HostId{0}, HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

// --- guards -----------------------------------------------------------

TEST(Attachment, ExcludedCandidatesAreSkipped) {
  HostState s = make_state(0, 3);
  s.learn_info(HostId{1}, SeqSet::contiguous(5));
  s.learn_info(HostId{2}, SeqSet::contiguous(4));
  const auto first = run_attachment(s, kNoExclusions);
  EXPECT_EQ(first.candidate, HostId{1});
  const auto second = run_attachment(s, excluding({HostId{1}}));
  EXPECT_EQ(second.candidate, HostId{2});
  const auto none = run_attachment(s, excluding({HostId{1}, HostId{2}}));
  EXPECT_EQ(none.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, NeverProposesOwnChildOrSelfAttachedHost) {
  HostState s = make_state(0, 3);
  s.learn_info(HostId{1}, SeqSet::contiguous(5));
  s.learn_info(HostId{2}, SeqSet::contiguous(5));
  s.add_child(HostId{1});                // known child
  s.learn_parent(HostId{2}, HostId{0});  // believes it hangs off us
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.action, AttachmentDecision::Action::kNone);
}

TEST(Attachment, PrefersMostAdvancedCandidate) {
  HostState s = make_state(0, 4);
  s.learn_info(HostId{1}, SeqSet::contiguous(3));
  s.learn_info(HostId{2}, SeqSet::contiguous(7));
  s.learn_info(HostId{3}, SeqSet::contiguous(5));
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.candidate, HostId{2});
}

TEST(Attachment, TieBreaksByHighestOrder) {
  HostState s = make_state(0, 4);
  s.learn_info(HostId{1}, SeqSet::contiguous(7));
  s.learn_info(HostId{3}, SeqSet::contiguous(7));
  const auto d = run_attachment(s, kNoExclusions);
  EXPECT_EQ(d.candidate, HostId{3});
}

}  // namespace
}  // namespace rbcast::core
