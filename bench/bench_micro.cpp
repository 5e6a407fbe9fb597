// E12 — micro-benchmarks of the substrates (google-benchmark).
//
// Not a paper experiment: these quantify the cost of the building blocks
// (INFO-set operations, timer queue, one network hop and its metrics
// observer, routing recompute, full simulation throughput) so that
// scenario wall-times are explainable.
//
// This binary is also the repo's perf gate: CI runs it with
// --benchmark_format=json and tools/bench_compare.py checks the result
// against the committed BENCH_micro.json baseline (see DESIGN.md §8).
// The SeqSet workloads are deliberately split into dense (few intervals,
// millions of elements — where interval-native algorithms must be
// O(intervals), not O(elements)), sparse (many small intervals) and
// adversarial (maximally fragmented, worst-case coalescing) shapes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <any>
#include <cstdint>
#include <string>
#include <vector>

#include "rbcast.h"

namespace {

using namespace rbcast;

// --- SeqSet: insertion ---------------------------------------------------

void BM_SeqSetInsertSequential(benchmark::State& state) {
  for (auto _ : state) {
    util::SeqSet s;
    for (util::Seq q = 1; q <= static_cast<util::Seq>(state.range(0)); ++q) {
      s.insert(q);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetInsertSequential)->Arg(1000)->Arg(10000);

void BM_SeqSetInsertWithGaps(benchmark::State& state) {
  for (auto _ : state) {
    util::SeqSet s;
    for (util::Seq q = 1; q <= static_cast<util::Seq>(state.range(0)); ++q) {
      if (q % 7 != 0) s.insert(q);  // persistent fragmentation
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetInsertWithGaps)->Arg(1000)->Arg(10000);

// Bulk range insertion: blocks of `kBlock` arriving out of order, the shape
// of attach-time back-fill bursts. Interval-native insert_range makes each
// block O(log intervals), independent of the block length.
void BM_SeqSetInsertRangeBlocks(benchmark::State& state) {
  constexpr util::Seq kBlock = 1024;
  const auto blocks = static_cast<util::Seq>(state.range(0));
  for (auto _ : state) {
    util::SeqSet s;
    // Even blocks first, then the odd blocks that bridge them.
    for (util::Seq b = 0; b < blocks; b += 2) {
      s.insert_range(b * kBlock + 1, (b + 1) * kBlock);
    }
    for (util::Seq b = 1; b < blocks; b += 2) {
      s.insert_range(b * kBlock + 1, (b + 1) * kBlock);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_SeqSetInsertRangeBlocks)->Arg(64)->Arg(1024);

// --- SeqSet: merge (the per-INFO-exchange cost) --------------------------

// Dense-large: both sides hold millions of elements in a handful of
// intervals — the caught-up steady state at production stream lengths.
// Cost must scale with the interval count, not the element count.
void BM_SeqSetMergeDenseLarge(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet a = util::SeqSet::contiguous(n);
  a.insert_range(n + 100, 2 * n);  // one gap near the top
  util::SeqSet b = util::SeqSet::contiguous(2 * n);
  for (auto _ : state) {
    util::SeqSet target = a;
    target.merge(b);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_SeqSetMergeDenseLarge)->Arg(1 << 20);

// Sparse: many disjoint runs on both sides (lossy-link fragmentation).
void BM_SeqSetMergeSparse(benchmark::State& state) {
  const auto runs = static_cast<util::Seq>(state.range(0));
  util::SeqSet a;
  util::SeqSet b;
  for (util::Seq r = 0; r < runs; ++r) {
    // Disjoint 4-element runs, interleaved between the two sets.
    a.insert_range(r * 16 + 1, r * 16 + 4);
    b.insert_range(r * 16 + 8, r * 16 + 11);
  }
  for (auto _ : state) {
    util::SeqSet target = a;
    target.merge(b);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_SeqSetMergeSparse)->Arg(1024)->Arg(8192);

// Adversarial: odds merged with evens — every merged interval bridges, the
// worst case for coalescing logic.
void BM_SeqSetMergeAdversarial(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet odds;
  util::SeqSet evens;
  for (util::Seq q = 1; q <= n; q += 2) odds.insert(q);
  for (util::Seq q = 2; q <= n; q += 2) evens.insert(q);
  for (auto _ : state) {
    util::SeqSet target = odds;
    target.merge(evens);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetMergeAdversarial)->Arg(1 << 14);

// --- SeqSet: gap queries (the per-gap-fill-round cost) -------------------

void BM_SeqSetMissingFrom(benchmark::State& state) {
  util::SeqSet mine = util::SeqSet::contiguous(10000);
  util::SeqSet peer;
  for (util::Seq q = 1; q <= 10000; ++q) {
    if (q % 11 != 0) peer.insert(q);
  }
  for (auto _ : state) {
    auto missing = mine.missing_from(peer, 64);
    benchmark::DoNotOptimize(missing);
  }
}
BENCHMARK(BM_SeqSetMissingFrom);

// Dense-large: a caught-up filler planning for a peer whose few holes sit
// near the top of a multi-million-message stream. An element-wise scan
// probes every element below the holes; an interval walk skips straight to
// them.
void BM_SeqSetMissingFromDenseLarge(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet mine = util::SeqSet::contiguous(n);
  // 64 single-element holes in the peer's top 1% of the stream.
  std::vector<util::Seq> holes;
  for (util::Seq i = 0; i < 64; ++i) holes.push_back(n - 1 - i * (n / 6400));
  std::sort(holes.begin(), holes.end());
  util::SeqSet peer;
  util::Seq cursor = 1;
  for (util::Seq h : holes) {
    if (cursor <= h - 1) peer.insert_range(cursor, h - 1);
    cursor = h + 1;
  }
  if (cursor <= n) peer.insert_range(cursor, n);
  for (auto _ : state) {
    auto missing = mine.missing_from(peer);
    benchmark::DoNotOptimize(missing);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetMissingFromDenseLarge)->Arg(1 << 20);

// Adversarial: maximally fragmented peer (every other element missing)
// under a small burst limit — the early-exit path must stay O(output).
void BM_SeqSetMissingFromAdversarial(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet mine = util::SeqSet::contiguous(n);
  util::SeqSet peer;
  for (util::Seq q = 2; q <= n; q += 2) peer.insert(q);
  for (auto _ : state) {
    auto missing = mine.missing_from(peer, 64);
    benchmark::DoNotOptimize(missing);
  }
}
BENCHMARK(BM_SeqSetMissingFromAdversarial)->Arg(1 << 16);

void BM_SeqSetGapsFragmented(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet s;
  for (util::Seq q = 1; q <= n; ++q) {
    if (q % 5 != 0) s.insert(q);
  }
  for (auto _ : state) {
    auto g = s.gaps(64);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_SeqSetGapsFragmented)->Arg(1 << 16);

void BM_SeqSetContains(benchmark::State& state) {
  util::SeqSet s;
  for (util::Seq q = 1; q <= 100000; ++q) {
    if (q % 3 != 0) s.insert(q);
  }
  util::Seq probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.contains(probe));
    probe = probe % 100000 + 1;
  }
}
BENCHMARK(BM_SeqSetContains);

// --- timer queue ---------------------------------------------------------

void BM_TimerQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    util::TimerQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule((i * 7919) % 100000, [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimerQueueScheduleAndPop)->Arg(1000)->Arg(10000);

// Timer churn: the protocol's dominant queue workload is arm/disarm of
// liveness and attach timers that almost never fire. The benchmark holds a
// small live set while cycling many cancelled timers through the queue.
void BM_TimerQueueChurn(benchmark::State& state) {
  const int rearms = static_cast<int>(state.range(0));
  for (auto _ : state) {
    util::TimerQueue q;
    constexpr int kTimers = 64;  // live timers per host-like entity
    std::vector<util::EventId> ids(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.schedule(1000000 + i, [] {});  // far future
    }
    for (int r = 0; r < rearms; ++r) {
      const std::size_t slot = static_cast<std::size_t>(r % kTimers);
      q.cancel(ids[slot]);
      ids[slot] = q.schedule(1000000 + r, [] {});
    }
    while (!q.empty()) q.pop();
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimerQueueChurn)->Arg(10000)->Arg(100000);

// Interleaved schedule/cancel/pop with time progress. Every schedule is
// relative to the last popped time, as the simulator's are to its clock.
void BM_TimerQueueMixed(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    util::TimerQueue q;
    std::vector<util::EventId> pending;
    util::TimePoint now = 0;
    std::uint64_t x = 88172645463325252ULL;  // xorshift, deterministic
    for (int i = 0; i < ops; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto r = x % 100;
      if (r < 50 || pending.empty()) {
        pending.push_back(
            q.schedule(now + static_cast<util::TimePoint>(x % 64), [] {}));
      } else if (r < 80) {
        q.cancel(pending[x % pending.size()]);
      } else if (!q.empty()) {
        now = q.pop().time;
      }
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimerQueueMixed)->Arg(10000);

// The DES's own access pattern: a steady pending set (wan96_control peaks
// near 2,600 events) where each fired event schedules one more. Delays
// replay the mix measured on wan96_control: 47% under 4 ms (hop arrivals
// on access links), 27% at 16-32 ms and 22% at 32 ms-1 s (trunk hops and
// protocol periods), the rest timers out to minutes. One item is one
// pop plus one schedule.
void BM_TimerQueueHopMix(benchmark::State& state) {
  constexpr std::size_t kDelays = 4096;
  std::vector<util::Duration> delays(kDelays);
  std::uint64_t x = 88172645463325252ULL;  // xorshift, deterministic
  const auto draw = [&x](std::uint64_t span) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<util::Duration>(x % span);
  };
  for (util::Duration& d : delays) {
    const auto pick = draw(100);
    if (pick < 47) {
      d = draw(4000);
    } else if (pick < 74) {
      d = 16000 + draw(16000);
    } else if (pick < 96) {
      d = 32000 + draw(968000);
    } else {
      d = 1000000 + draw(300000000);
    }
  }
  util::TimerQueue q;
  std::size_t next = 0;
  for (int i = 0; i < state.range(0); ++i) {
    q.schedule(delays[next++ % kDelays], [] {});
  }
  for (auto _ : state) {
    const util::TimePoint now = q.pop().time;
    benchmark::DoNotOptimize(now);
    q.schedule(now + delays[next++ % kDelays], [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerQueueHopMix)->Arg(2048);

// --- network & its observer ----------------------------------------------

// One unicast driven to delivery across a line of four single-host
// clusters: access link, three trunks, access link — five transmissions,
// five arrival events. The per-hop cost every INFO exchange pays, since
// the nonprogrammable servers make each one a multi-hop unicast. The
// payload copy made per send is part of it, as it is for a real host.
void BM_NetworkHop(benchmark::State& state) {
  topo::ClusteredWanOptions options;
  options.clusters = 4;
  options.hosts_per_cluster = 1;
  options.shape = topo::TrunkShape::kLine;
  const auto wan = make_clustered_wan(options);
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  std::uint64_t delivered = 0;
  for (const auto& h : wan.topology.hosts()) {
    network.register_host(h.id,
                          [&delivered](const net::Delivery&) { ++delivered; });
  }
  const HostId from = wan.cluster_hosts.front().front();
  const HostId to = wan.cluster_hosts.back().front();
  const std::any payload = std::string("INFO 0123456789");
  for (auto _ : state) {
    network.send(from, to, payload, 64, "info", /*trace_id=*/0);
    simulator.run_to_completion();
  }
  if (delivered != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a send was not delivered");
  }
  state.SetItemsProcessed(state.iterations() * 5);  // transmissions
}
BENCHMARK(BM_NetworkHop);

// trace::Metrics' share of one trunk transmission: per-class and per-kind
// counters plus the link's busy time, alternating between a cheap and an
// expensive link and between two message kinds.
void BM_MetricsLinkTransmit(benchmark::State& state) {
  const auto wan =
      topo::make_clustered_wan({.clusters = 2, .hosts_per_cluster = 2});
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  trace::Metrics metrics(simulator, network);
  LinkId links[2] = {kNoLink, wan.trunks.front()};
  for (const auto& l : wan.topology.links()) {
    if (!l.is_access && l.link_class == topo::LinkClass::kCheap) {
      links[0] = l.id;
    }
  }
  net::Delivery deliveries[2];
  deliveries[0].kind = "info";
  deliveries[0].bytes = 40;
  deliveries[1].kind = "data";
  deliveries[1].bytes = 300;
  std::size_t i = 0;
  for (auto _ : state) {
    metrics.on_link_transmit(links[i & 1], deliveries[(i >> 1) & 1]);
    ++i;
  }
  benchmark::DoNotOptimize(metrics.counter("link.cheap"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsLinkTransmit);

// --- telemetry plane ------------------------------------------------------

// The per-event cost observability adds to the data plane: one owned
// counter increment. This must stay within noise of a bare uint64_t add —
// the registry hands out a reference, so there is no lookup on the hot
// path (DESIGN.md §14).
void BM_RegistryCounterInc(benchmark::State& state) {
  util::MetricsRegistry registry;
  util::MetricsRegistry::Counter& counter =
      registry.counter("bench.hot_path");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterInc);

// One delivery-latency observation on the shared sampler bounds: a bucket
// scan over ten bounds plus sum/count — what rbcast_node pays per
// first-delivery.
void BM_RegistryHistogramRecord(benchmark::State& state) {
  util::MetricsRegistry registry;
  util::Histogram& histogram = registry.histogram(
      "bench.latency_seconds", trace::MetricSampler::latency_bounds());
  double v = 0.0004;
  for (auto _ : state) {
    histogram.add(v);
    v = v < 50.0 ? v * 1.7 : 0.0004;  // sweeps every bucket incl. +inf
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryHistogramRecord);

// Scrape-side cost: evaluating a fleet-sized registry (32 hosts x 10
// callback series) into a snapshot, as every /metrics or /status hit does.
// Off the data plane, but it shares the node's event loop.
void BM_RegistrySnapshot(benchmark::State& state) {
  util::MetricsRegistry registry;
  std::uint64_t backing = 0;
  for (int h = 0; h < 32; ++h) {
    const std::string labels = "host=\"" + std::to_string(h) + "\"";
    for (int s = 0; s < 10; ++s) {
      registry.register_counter_fn("bench.series" + std::to_string(s),
                                   labels, "",
                                   [&backing] { return ++backing; });
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_RegistrySnapshot);

// --- protocol core --------------------------------------------------------

std::vector<HostId> host_range(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

// What every INFO upcall does to HostState on a 96-host system: merge the
// sender's INFO set into MAP, record its parent, apply its cost bit —
// cycling over the 96 ids, four hosts to a cluster (the own id is a
// no-op).
void BM_HostStateInfoUpdate(benchmark::State& state) {
  constexpr int kHosts = 96;
  core::HostState host(HostId{5}, host_range(kHosts), HostId{0});
  const util::SeqSet info = util::SeqSet::contiguous(400);
  int j = 0;
  for (auto _ : state) {
    j = j + 1 == kHosts ? 0 : j + 1;
    const HostId peer{j};
    host.learn_info(peer, info);
    host.learn_parent(peer, HostId{j / 4 * 4});
    host.update_cluster_from_cost_bit(peer, /*expensive=*/j / 4 != 1);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(host.safe_prefix());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostStateInfoUpdate);

// One attachment decision of a cluster leader (case II: its parent sits in
// another cluster) that stays put: options (1), (2) and II.3 each scan
// every host, which is the procedure's worst case.
void BM_RunAttachment(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  core::HostState host(HostId{5}, host_range(hosts), HostId{0});
  std::vector<HostId> cluster;
  for (int h = 4; h < 8; ++h) cluster.push_back(HostId{h});
  host.set_cluster(cluster);
  host.record_message(1, "b");
  for (int h = 0; h < hosts; ++h) {
    if (h == 5) continue;
    host.learn_info(HostId{h}, util::SeqSet::contiguous(1));
    host.learn_parent(HostId{h}, h < 4 ? kNoHost : HostId{h / 4 * 4 - 1});
  }
  host.set_parent(HostId{3});
  host.learn_parent(HostId{4}, HostId{5});
  host.learn_parent(HostId{6}, HostId{5});
  host.learn_parent(HostId{7}, HostId{5});
  const core::ExclusionFn none = [](HostId) { return false; };
  for (auto _ : state) {
    const auto decision = core::run_attachment(host, none);
    benchmark::DoNotOptimize(decision.candidate);
  }
  if (core::run_attachment(host, none).action !=
      core::AttachmentDecision::Action::kNone) {
    state.SkipWithError("the leader was expected to keep its parent");
  }
}
BENCHMARK(BM_RunAttachment)->Arg(96);

// One INFO message through BroadcastHost::on_delivery on a 96-host system:
// the sender's MAP, parent and cluster bit, the child reconciliation and
// the liveness stamp. Sends go to a sink that drops them.
void BM_BroadcastHostOnInfo(benchmark::State& state) {
  constexpr int kHosts = 96;
  class Sink final : public transport::Transport, public net::HostEndpoint {
   public:
    [[nodiscard]] util::Scheduler& scheduler() override { return simulator_; }
    net::HostEndpoint& attach(HostId, net::DeliveryFn) override {
      return *this;
    }
    void detach(HostId) override {}
    [[nodiscard]] HostId self() const override { return HostId{5}; }
    void send(HostId, std::any, std::size_t, std::string,
              net::TraceId) override {}

   private:
    sim::Simulator simulator_;
  };
  Sink sink;
  core::BroadcastHost host(sink, HostId{5}, HostId{0}, host_range(kHosts),
                           core::Config{}, util::Rng(1));
  std::vector<net::Delivery> deliveries;
  for (int j = 0; j < kHosts; ++j) {
    if (j == 5) continue;
    net::Delivery d;
    d.from = HostId{j};
    d.to = HostId{5};
    d.expensive = j / 4 != 1;
    d.payload = std::any(core::ProtocolMessage{
        core::InfoMsg{util::SeqSet::contiguous(400), HostId{j / 4 * 4}}});
    d.bytes = 40;
    d.kind = "info";
    deliveries.push_back(std::move(d));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    host.on_delivery(deliveries[i]);
    benchmark::ClobberMemory();
    i = i + 1 == deliveries.size() ? 0 : i + 1;
  }
  benchmark::DoNotOptimize(host.state().safe_prefix());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BroadcastHostOnInfo);

// --- routing & full scenario --------------------------------------------

void BM_RoutingRecompute(benchmark::State& state) {
  topo::ClusteredWanOptions options;
  options.clusters = static_cast<int>(state.range(0));
  options.hosts_per_cluster = 4;
  options.shape = topo::TrunkShape::kRing;
  options.extra_trunk_fraction = 0.5;
  const auto wan = make_clustered_wan(options);
  sim::Simulator simulator;
  net::Routing routing(
      simulator, wan.topology, [](LinkId) { return true; }, 0);
  for (auto _ : state) {
    routing.recompute_now();
  }
  state.counters["servers"] =
      static_cast<double>(wan.topology.server_count());
}
BENCHMARK(BM_RoutingRecompute)->Arg(5)->Arg(15)->Arg(30);

void BM_FullScenarioThroughput(benchmark::State& state) {
  // Events per second of a complete 3x3 WAN scenario with a live stream.
  for (auto _ : state) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 3;
    wan.hosts_per_cluster = 3;
    harness::ScenarioOptions options;
    options.seed = 12;
    harness::Experiment e(make_clustered_wan(wan).topology, options);
    e.start();
    e.broadcast_stream(20, sim::milliseconds(500), sim::seconds(1));
    e.run_for(sim::seconds(60));
    benchmark::DoNotOptimize(e.metrics().counter_prefix_sum("send."));
  }
}
BENCHMARK(BM_FullScenarioThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
