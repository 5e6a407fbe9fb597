// Chaos harness tests: ChaosSpec JSON round-trip, deterministic expansion,
// end-to-end monitored runs and the shrinking loop.
//
// The known-bad fixture (tests/data/chaos_bad.json) breaks recovery by
// construction: attach_period_s is far longer than the horizon, so the
// first (jittered) attachment activation of most hosts never happens and
// the parent graph cannot form — C2/C3 fire regardless of fault timing.
#include "harness/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace rbcast::harness {
namespace {

// A spec small enough that monitored runs take milliseconds.
ChaosSpec small_spec() {
  ChaosSpec spec;
  spec.clusters = 3;
  spec.hosts_per_cluster = 2;
  spec.broadcasts = 4;
  spec.interval_s = 1.0;
  spec.first_at_s = 2.0;
  spec.fault_end_s = 20.0;
  spec.orphan_limit_s = 30.0;
  spec.converge_deadline_s = 60.0;
  spec.outages = 2;
  spec.crashes = 1;
  spec.partitions = 0;
  spec.flap_links = 1;
  return spec;
}

// Mirrors tests/data/chaos_bad.json (which drives the CLI smoke test);
// inline here so the test binary does not depend on its working directory.
ChaosSpec bad_spec() {
  return parse_chaos_spec(R"({
    "version": 1,
    "topology": {"clusters": 3, "hosts_per_cluster": 2, "shape": "ring"},
    "workload": {"broadcasts": 4, "interval_s": 1, "first_at_s": 2},
    "horizon": {"fault_end_s": 15, "orphan_limit_s": 5,
                "converge_deadline_s": 8, "horizon_s": 40},
    "config": {"attach_period_s": 200},
    "concrete": true,
    "events": [
      {"type": "crash", "target": 3, "from_s": 2, "to_s": 15}
    ]
  })");
}

TEST(ChaosSpec, JsonRoundTripIsStable) {
  const ChaosSpec spec = concretize(small_spec(), 7);
  const std::string once = to_json(spec);
  const std::string twice = to_json(parse_chaos_spec(once));
  EXPECT_EQ(once, twice);
  EXPECT_FALSE(spec.events.empty());
}

// Every double of a spec, in a fixed order; optionals contribute only when
// set (their presence is compared separately).
std::vector<double> doubles_of(const ChaosSpec& s) {
  std::vector<double> out{s.interval_s,     s.first_at_s,
                          s.fault_end_s,    s.orphan_limit_s,
                          s.converge_deadline_s, s.horizon_s,
                          s.flap_mean_up_s, s.flap_mean_down_s,
                          s.min_window_s,   s.max_window_s};
  for (const std::optional<double>& v :
       {s.attach_period_s, s.info_period_inter_s,
        s.gapfill_period_neighbor_s, s.batch_flush_ms}) {
    out.push_back(v.has_value() ? 1.0 : 0.0);
    if (v) out.push_back(*v);
  }
  for (const ChaosEvent& e : s.events) {
    out.push_back(e.from_s);
    out.push_back(e.to_s);
  }
  return out;
}

// Jittered windows and periods are arbitrary doubles; a repro replays
// the failing run only if to_json writes each of them exactly.
TEST(ChaosSpec, RoundTripKeepsEveryDoubleExact) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const ChaosSpec spec = concretize(ChaosSpec{}, seed);
    const std::vector<double> before = doubles_of(spec);
    const std::vector<double> after =
        doubles_of(parse_chaos_spec(to_json(spec)));
    ASSERT_EQ(before.size(), after.size()) << "seed " << seed;
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(before[i], after[i]) << "seed " << seed << " double " << i;
    }
  }
}

TEST(ChaosSpec, RoundTripPreservesGeneratorFields) {
  ChaosSpec spec = small_spec();
  spec.jitter_topology = true;
  spec.piggyback_info = false;
  spec.attach_period_s = 2.5;
  spec.batch_flush_ms = 5;
  spec.batch_max_bytes = 1200;
  const ChaosSpec back = parse_chaos_spec(to_json(spec));
  EXPECT_EQ(back.clusters, spec.clusters);
  EXPECT_EQ(back.broadcasts, spec.broadcasts);
  EXPECT_EQ(back.flap_links, spec.flap_links);
  EXPECT_TRUE(back.jitter_topology);
  ASSERT_TRUE(back.piggyback_info.has_value());
  EXPECT_FALSE(*back.piggyback_info);
  ASSERT_TRUE(back.attach_period_s.has_value());
  EXPECT_DOUBLE_EQ(*back.attach_period_s, 2.5);
  ASSERT_TRUE(back.batch_flush_ms.has_value());
  EXPECT_DOUBLE_EQ(*back.batch_flush_ms, 5.0);
  ASSERT_TRUE(back.batch_max_bytes.has_value());
  EXPECT_EQ(*back.batch_max_bytes, 1200);
  EXPECT_FALSE(back.concrete);
}

TEST(ChaosSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_chaos_spec("{"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("[]"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec(R"({"topology": {"clusters": 0}})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_chaos_spec(R"({"events": [{"type": "meteor", "from_s": 1,
                           "to_s": 2}]})"),
      std::invalid_argument);
}

TEST(ChaosSpec, ExpansionIsDeterministicPerSeed) {
  const ChaosSpec spec = small_spec();
  EXPECT_EQ(to_json(concretize(spec, 5)), to_json(concretize(spec, 5)));
  EXPECT_NE(to_json(concretize(spec, 5)), to_json(concretize(spec, 6)));
}

TEST(ChaosSpec, ConcreteSpecPassesThroughUnchanged) {
  const ChaosSpec expanded = concretize(small_spec(), 3);
  ASSERT_TRUE(expanded.concrete);
  // Re-concretizing (with a different seed!) must not regenerate events:
  // a reproducer pins its schedule.
  EXPECT_EQ(to_json(concretize(expanded, 99)), to_json(expanded));
}

TEST(ChaosSpec, ExpansionOrdersAndClampsEvents) {
  const ChaosSpec spec = concretize(small_spec(), 11);
  EXPECT_TRUE(std::is_sorted(
      spec.events.begin(), spec.events.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.from_s < b.from_s; }));
  for (const ChaosEvent& e : spec.events) {
    EXPECT_LT(e.from_s, e.to_s);
    EXPECT_LE(e.to_s, spec.fault_end_s);
  }
}

TEST(ChaosRun, CleanSpecProducesNoViolations) {
  const ChaosRunResult r = run_chaos(small_spec(), 1);
  EXPECT_TRUE(r.violations.empty())
      << r.violations[0].invariant << ": " << r.violations[0].description;
  EXPECT_TRUE(r.delivered_all);
  EXPECT_FALSE(r.manifest.empty());
}

TEST(ChaosRun, KnownBadSpecViolatesLiveness) {
  const ChaosRunResult r = run_chaos(bad_spec(), 1);
  ASSERT_TRUE(r.violated());
  // With attachment effectively disabled the orphan bound (C2) and the
  // convergence deadline (C3) must both fire.
  auto has = [&](const std::string& id) {
    return std::any_of(r.violations.begin(), r.violations.end(),
                       [&](const auto& v) { return v.invariant == id; });
  };
  EXPECT_TRUE(has(kOrphanBound));
  EXPECT_TRUE(has(kConvergeDeadline));
}

TEST(ChaosShrink, MinimizesKnownBadSpecAndKeepsItFailing) {
  const ChaosSpec spec = bad_spec();
  const ShrinkResult shrunk = shrink_chaos(spec, 1, /*max_attempts=*/60);
  EXPECT_LE(shrunk.events_after, shrunk.events_before);
  ASSERT_FALSE(shrunk.violations.empty());
  // The minimized spec reproduces the original failure signature.
  const ChaosRunResult original = run_chaos(spec, 1);
  ASSERT_FALSE(original.violations.empty());
  EXPECT_EQ(shrunk.violations.front().invariant,
            original.violations.front().invariant);
  // The repro is self-contained: a fresh parse of its JSON still fails
  // identically (this is exactly what rbcast_sim --chaos-spec replays).
  const ChaosRunResult replay =
      run_chaos(parse_chaos_spec(to_json(shrunk.spec)), 1);
  ASSERT_FALSE(replay.violations.empty());
  EXPECT_EQ(replay.violations.front().invariant,
            shrunk.violations.front().invariant);
}

TEST(ChaosShrink, ShrunkTopologyStaysRunnable) {
  // Modulo-mapped targets must keep every event applicable after the
  // topology shrinks; a throw here would mean an out-of-range target.
  const ShrinkResult shrunk = shrink_chaos(bad_spec(), 1, 40);
  EXPECT_LE(shrunk.spec.clusters, 3);
  EXPECT_LE(shrunk.spec.hosts_per_cluster, 2);
  EXPECT_NO_THROW(run_chaos(shrunk.spec, 1));
}

// --- Byzantine adversary family ---------------------------------------------

// Mirrors tests/data/chaos_byzantine_bad.json (the undefended known-bad
// fixture the CI byzantine-soak job replays); inline so the test binary
// does not depend on its working directory. Verified empirically: at seed
// 1 the adversary corrupts hosts >= 2 hops from any Byzantine host.
ChaosSpec byzantine_bad_spec() {
  return parse_chaos_spec(R"({
    "version": 1,
    "topology": {"clusters": 3, "hosts_per_cluster": 3, "shape": "line"},
    "workload": {"broadcasts": 8, "interval_s": 1, "first_at_s": 5},
    "horizon": {"fault_end_s": 40, "orphan_limit_s": 45,
                "converge_deadline_s": 90},
    "generate": {"outages": 0, "crashes": 0, "partitions": 0,
                 "flap_links": 0, "jitter_config": false},
    "byzantine": {"count": 2, "equivocate": true, "corrupt": true,
                  "lie_info": true, "bogus_offer": true}
  })");
}

TEST(ChaosByzantine, RoundTripPreservesAdversaryFields) {
  ChaosSpec spec = small_spec();
  spec.byzantine = 2;
  spec.byz_lie_info = false;
  spec.auth_enabled = true;
  const ChaosSpec back = parse_chaos_spec(to_json(spec));
  EXPECT_EQ(back.byzantine, 2);
  EXPECT_TRUE(back.byz_equivocate);
  EXPECT_TRUE(back.byz_corrupt);
  EXPECT_FALSE(back.byz_lie_info);
  EXPECT_TRUE(back.byz_bogus_offer);
  ASSERT_TRUE(back.auth_enabled.has_value());
  EXPECT_TRUE(*back.auth_enabled);
}

TEST(ChaosByzantine, ExpansionDrawsByzantineWindowsDeterministically) {
  ChaosSpec spec = small_spec();
  spec.byzantine = 2;
  const ChaosSpec a = concretize(spec, 9);
  const ChaosSpec b = concretize(spec, 9);
  EXPECT_EQ(to_json(a), to_json(b));
  const auto byz_events = std::count_if(
      a.events.begin(), a.events.end(),
      [](const ChaosEvent& e) { return e.type.rfind("byz_", 0) == 0; });
  // Two adversaries, four behaviors each.
  EXPECT_EQ(byz_events, 8);
  for (const ChaosEvent& e : a.events) {
    EXPECT_LT(e.from_s, e.to_s);
    EXPECT_LE(e.to_s, spec.fault_end_s);
  }
}

TEST(ChaosByzantine, UndefendedAdversaryBreaksSafetyBeyondOneHop) {
  const ChaosRunResult r = run_chaos(byzantine_bad_spec(), 1);
  ASSERT_TRUE(r.violated());
  // The first violation is attributed to the adversary class.
  EXPECT_EQ(violation_signature(r.violations.front()), "I2/byzantine");
  // Blast radius: corruption propagated past the adversary's direct
  // edges — the exact failure mode authentication exists to contain.
  EXPECT_FALSE(r.containment.byzantine.empty());
  EXPECT_FALSE(r.containment.corrupted_hosts.empty());
  EXPECT_GE(r.containment.max_hops, 2);
  EXPECT_FALSE(r.containment.contained());
  EXPECT_EQ(r.auth_rejects, 0u);
}

TEST(ChaosByzantine, AuthenticationRestoresContainment) {
  ChaosSpec spec = byzantine_bad_spec();
  // Same adversary, data-plane behaviors, defense on. (lie_info stays on
  // the undefended fixture: INFO frames are not authenticated, and a
  // lying watermark can still poison pruning — a measured limitation,
  // see EXPERIMENTS.md.)
  spec.byz_lie_info = false;
  spec.auth_enabled = true;
  const ChaosRunResult r = run_chaos(spec, 1);
  EXPECT_TRUE(r.violations.empty())
      << r.violations[0].invariant << ": " << r.violations[0].description;
  // The adversary was active — its forgeries were rejected at receipt —
  // and no host accepted a corrupt body.
  EXPECT_FALSE(r.containment.byzantine.empty());
  EXPECT_GT(r.auth_rejects, 0u);
  EXPECT_TRUE(r.containment.corrupted_hosts.empty());
  EXPECT_TRUE(r.containment.contained());
}

TEST(ChaosByzantine, SameSeedRunsAreBitIdentical) {
  // Mutations are pure functions of (window, message, destination): two
  // runs of the same seed must agree on every violation and counter.
  const ChaosRunResult a = run_chaos(byzantine_bad_spec(), 3);
  const ChaosRunResult b = run_chaos(byzantine_bad_spec(), 3);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].description, b.violations[i].description);
    EXPECT_EQ(a.violations[i].at, b.violations[i].at);
  }
  EXPECT_EQ(a.auth_rejects, b.auth_rejects);
  EXPECT_EQ(to_string(a.containment), to_string(b.containment));
}

TEST(ChaosByzantine, ShrinkKeepsTheByzantineSignature) {
  const ChaosSpec spec = byzantine_bad_spec();
  const ShrinkResult shrunk = shrink_chaos(spec, 1, /*max_attempts=*/60);
  ASSERT_FALSE(shrunk.violations.empty());
  // ddmin may not strip every byz event (removing them all would turn
  // I2/byzantine into plain I2 and the candidate is rejected), so the
  // minimized spec still schedules an adversary and fails the same way.
  EXPECT_EQ(violation_signature(shrunk.violations.front()), "I2/byzantine");
  const auto byz_left = std::count_if(
      shrunk.spec.events.begin(), shrunk.spec.events.end(),
      [](const ChaosEvent& e) { return e.type.rfind("byz_", 0) == 0; });
  EXPECT_GE(byz_left, 1);
  // And replays from its own JSON, exactly like rbcast_sim --chaos-spec.
  const ChaosRunResult replay =
      run_chaos(parse_chaos_spec(to_json(shrunk.spec)), 1);
  ASSERT_FALSE(replay.violations.empty());
  EXPECT_EQ(violation_signature(replay.violations.front()), "I2/byzantine");
}

}  // namespace
}  // namespace rbcast::harness
