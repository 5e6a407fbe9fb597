// Tests for the formal-model layer: the checker's mechanics, the copy
// semantics of the automaton it explores, its ability to catch a forged
// relay, and bounded verification runs of the shipping protocol handlers.
#include "model/checker.h"

#include <gtest/gtest.h>

namespace rbcast::model {
namespace {

ModelConfig two_hosts() {
  ModelConfig config;
  config.hosts = 2;
  config.cluster_of = {0, 1};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

ModelConfig three_hosts_triangle() {
  // The Figure 4.1 shape: three single-host clusters.
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 1, 2};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

ModelConfig three_hosts_one_cluster() {
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 0, 0};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

// --- model mechanics -----------------------------------------------------

TEST(Model, InitialStateMatchesPaperInitialConditions) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  ASSERT_EQ(init.nodes.size(), 2u);
  for (const auto& node : init.nodes) {
    EXPECT_TRUE(node.protocol.state().info().empty());
    EXPECT_FALSE(node.protocol.state().parent().valid());
    EXPECT_EQ(node.protocol.state().cluster().size(), 1u);  // {self}
  }
  EXPECT_TRUE(init.inflight.empty());
}

TEST(Model, BroadcastTransitionGeneratesMessage) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  const auto next = checker.successors(init);
  // At minimum: the broadcast transition and info exchanges exist.
  bool found_broadcast = false;
  for (const auto& [description, state] : next) {
    if (description == "broadcast#1") {
      found_broadcast = true;
      EXPECT_EQ(state.broadcasts_done, 1);
      EXPECT_EQ(state.nodes[0].protocol.state().info().max_seq(), 1u);
      // No children yet: nothing in flight from the broadcast itself.
    }
  }
  EXPECT_TRUE(found_broadcast);
}

TEST(Model, FingerprintDistinguishesStates) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  const auto next = checker.successors(init);
  ASSERT_FALSE(next.empty());
  for (const auto& [description, state] : next) {
    if (description == "tick") {
      // Nothing in the initial state carries a time stamp a move reads,
      // so ticking the clock is a stutter step and must deduplicate.
      EXPECT_EQ(state.fingerprint(), init.fingerprint());
      continue;
    }
    EXPECT_NE(state.fingerprint(), init.fingerprint()) << description;
  }
}

TEST(Model, FingerprintIsOrderInsensitiveForInflight) {
  Checker checker(two_hosts());
  SystemState a = checker.initial_state();
  SystemState b = checker.initial_state();
  ModelMessage m1{HostId{0}, HostId{1},
                  core::ProtocolMessage{core::DetachNotice{}}};
  ModelMessage m2{HostId{1}, HostId{0},
                  core::ProtocolMessage{core::DetachNotice{}}};
  a.inflight = {m1, m2};
  b.inflight = {m2, m1};
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// --- bounded verification of the real rules ---------------------------------

TEST(Model, ExhaustiveTwoHostsIsSafe) {
  Checker checker(two_hosts());
  const auto report = checker.explore_bfs(/*max_depth=*/14,
                                          /*max_states=*/200000);
  ASSERT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.states_explored, 20000u);
}

TEST(Model, ExhaustiveTriangleIsSafe) {
  Checker checker(three_hosts_triangle());
  const auto report = checker.explore_bfs(/*max_depth=*/7,
                                          /*max_states=*/150000);
  ASSERT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.states_explored, 3000u);
}

TEST(Model, ExhaustiveSingleClusterIsSafe) {
  Checker checker(three_hosts_one_cluster());
  const auto report = checker.explore_bfs(/*max_depth=*/5,
                                          /*max_states=*/150000);
  EXPECT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
}

TEST(Model, RandomWalksAreSafeDeepIntoTheRun) {
  Checker checker(three_hosts_triangle());
  const auto report =
      checker.explore_random(/*walks=*/300, /*steps=*/120, /*seed=*/99);
  EXPECT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.transitions_fired, 10000u);
}

// --- liveness under fair scheduling ----------------------------------------

TEST(Model, FairWalksReachFullDissemination) {
  Checker checker(three_hosts_triangle());
  const auto report =
      checker.explore_liveness(/*walks=*/60, /*max_steps=*/400, /*seed=*/3);
  EXPECT_TRUE(report.clean());
  // Under fair scheduling, the vast majority of runs disseminate fully.
  EXPECT_GE(report.completed, 50) << "only " << report.completed << "/"
                                  << report.walks << " walks completed";
  EXPECT_GT(report.mean_steps_to_complete, 0.0);
}

TEST(Model, FairWalksCompleteInSingleClusterToo) {
  Checker checker(three_hosts_one_cluster());
  const auto report =
      checker.explore_liveness(/*walks=*/60, /*max_steps=*/400, /*seed=*/4);
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.completed, 50);
}

// --- the forged-DATA adversary -------------------------------------------

TEST(Model, ForgedDataWithoutAuthBreaksIntegrity) {
  // The paper's relays are trusted: a relay that rewrites a body is
  // believed, and the checker must find the resulting I2 violation.
  ModelConfig config = two_hosts();
  config.forge = ModelConfig::Forge::kNoAuth;
  Checker checker(config);
  const auto report =
      checker.explore_random(/*walks=*/500, /*steps=*/100, /*seed=*/5);
  ASSERT_FALSE(report.clean())
      << "the checker failed to catch a forged relay";
  EXPECT_EQ(report.violations[0].invariant, "I2");
  // A violation carries a reproducible trace.
  EXPECT_FALSE(report.violations[0].trace.empty());
}

TEST(Model, SignedDataResistsForgeryOnTheTriangle) {
  // One broadcast keeps the space small enough to reach depth 8, where an
  // unsigned forgery first gets accepted (the forged seq must arrive as a
  // new maximum from an attached parent). With source tags on, the same
  // forgery — carrying the seq's genuine tag on the wrong body — is
  // rejected on arrival in every explored state, one level deeper still.
  ModelConfig config = three_hosts_triangle();
  config.max_broadcasts = 1;
  config.forge = ModelConfig::Forge::kNoAuth;
  const auto unsigned_run = Checker(config).explore_bfs(8, 150000);
  ASSERT_FALSE(unsigned_run.clean());
  EXPECT_EQ(unsigned_run.violations[0].invariant, "I2");

  config.forge = ModelConfig::Forge::kAuth;
  const auto report = Checker(config).explore_bfs(9, 150000);
  EXPECT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.states_explored, 20000u);
}

// --- copy semantics of the automaton ---------------------------------------

// Records first receipts and drops sends and timers: enough to drive one
// automaton by hand.
struct Recorder final : core::HostProtocol::Effects {
  void send(HostId, core::ProtocolMessage) override {}
  void deliver(Seq seq, std::string_view) override { delivered.push_back(seq); }
  void arm_attach_timeout(HostId) override {}
  void cancel_attach_timeout() override {}
  std::vector<Seq> delivered;
};

net::Delivery delivery(HostId from, core::ProtocolMessage m) {
  net::Delivery d;
  d.from = from;
  d.to = HostId{1};
  d.expensive = true;
  d.payload = std::move(m);
  return d;
}

core::DataMsg signed_data(const core::Config& config, Seq seq,
                          const std::string& body) {
  return core::DataMsg{seq, body, false, std::nullopt,
                       core::make_auth_tag(config.auth_secret, HostId{0}, seq,
                                           body)};
}

TEST(Model, CopiedAutomataEvolveIndependently) {
  core::Config config;
  config.auth_enabled = true;
  const std::vector<HostId> hosts{HostId{0}, HostId{1}, HostId{2}};
  core::HostProtocol a(HostId{1}, HostId{0}, hosts, config, util::Rng(1));
  Recorder fx;
  const util::TimePoint now = 0;
  util::SeqSet up_to_one;
  up_to_one.insert(1);
  util::SeqSet up_to_three = up_to_one;
  up_to_three.insert(2);
  up_to_three.insert(3);

  // Mid-stream: attached to the source, one signed message accepted and
  // offered on to a child, then the parent lost and the re-attach
  // handshake timed out.
  a.on_delivery(now, delivery(HostId{0}, core::InfoMsg{up_to_one, kNoHost}),
                fx);
  a.attachment_round(now, fx);
  ASSERT_EQ(a.pending_attach(), HostId{0});
  a.on_delivery(now, delivery(HostId{0}, core::AttachAccept{{}, kNoHost}),
                fx);
  ASSERT_EQ(a.state().parent(), HostId{0});
  a.on_delivery(now, delivery(HostId{2}, core::InfoMsg{{}, HostId{1}}), fx);
  ASSERT_TRUE(a.state().is_child(HostId{2}));
  a.on_delivery(now, delivery(HostId{0}, signed_data(config, 2, "m2")), fx);
  ASSERT_EQ(fx.delivered, std::vector<Seq>{2});
  ASSERT_EQ(a.peer(HostId{2})->offered.size(), 1u);
  a.on_delivery(now,
                delivery(HostId{0}, core::InfoMsg{up_to_three, kNoHost}), fx);
  a.parent_timeout(now, fx);
  ASSERT_EQ(a.pending_attach(), HostId{0});
  a.on_attach_timeout(now, HostId{0}, fx);
  ASSERT_GT(a.peer(HostId{0})->failed_until, now);

  core::HostProtocol b = a;
  EXPECT_EQ(model::protocol_fingerprint(a, now),
            model::protocol_fingerprint(b, now));

  // The same delivery keeps the copies in step.
  const net::Delivery same =
      delivery(HostId{0}, core::InfoMsg{up_to_three, kNoHost});
  a.on_delivery(now, same, fx);
  b.on_delivery(now, same, fx);
  const std::string before = model::protocol_fingerprint(a, now);
  EXPECT_EQ(before, model::protocol_fingerprint(b, now));
  const auto offered = a.peer(HostId{2})->offered;
  const auto failed_until = a.peer(HostId{0})->failed_until;
  const auto tags = a.auth_tags();

  // Different deliveries to one copy leave the other untouched: an INFO
  // report refutes b's offer, and a gap fill adds a body and a tag.
  b.on_delivery(now, delivery(HostId{2}, core::InfoMsg{{}, HostId{1}}), fx);
  b.on_delivery(now, delivery(HostId{2}, signed_data(config, 1, "m1")), fx);
  ASSERT_EQ(fx.delivered, (std::vector<Seq>{2, 1}));
  EXPECT_TRUE(b.peer(HostId{2})->offered.empty());
  EXPECT_NE(model::protocol_fingerprint(b, now), before);
  EXPECT_EQ(model::protocol_fingerprint(a, now), before);
  EXPECT_EQ(a.peer(HostId{2})->offered, offered);
  EXPECT_EQ(a.peer(HostId{0})->failed_until, failed_until);
  EXPECT_EQ(a.auth_tags(), tags);
  EXPECT_EQ(b.auth_tags().size(), 2u);
  EXPECT_EQ(a.state().body_of(1), nullptr);
  ASSERT_NE(b.state().body_of(1), nullptr);
  // Both still read the one shared, unchanged buffer of message 2.
  ASSERT_NE(a.state().body_of(2), nullptr);
  EXPECT_EQ(a.state().body_of(2)->view(), "m2");
  EXPECT_EQ(a.state().body_of(2)->view().data(),
            b.state().body_of(2)->view().data());
}

TEST(Model, RejectsBadConfiguration) {
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 0};  // wrong size
  EXPECT_THROW(Checker{config}, std::invalid_argument);

  ModelConfig bad_source;
  bad_source.hosts = 2;
  bad_source.cluster_of = {0, 1};
  bad_source.source = HostId{7};
  EXPECT_THROW(Checker{bad_source}, std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::model
