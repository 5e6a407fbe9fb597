#include "trace/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "topo/generators.h"

namespace rbcast::trace {
namespace {

struct Fixture {
  sim::Simulator sim;
  util::RngFactory rngs{1};
  topo::Wan wan;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Metrics> metrics;

  Fixture() {
    topo::ClusteredWanOptions options;
    options.clusters = 2;
    options.hosts_per_cluster = 2;
    wan = make_clustered_wan(options);
    network = std::make_unique<net::Network>(sim, wan.topology,
                                             net::NetConfig{}, rngs);
    metrics = std::make_unique<Metrics>(sim, *network);
    metrics->attach();
    for (const auto& h : wan.topology.hosts()) {
      network->register_host(h.id, [](const net::Delivery&) {});
    }
  }

  void send(HostId from, HostId to, const std::string& kind,
            std::size_t bytes = 100) {
    network->send(from, to, std::any(std::string("payload")), bytes, kind,
                  /*trace_id=*/0);
  }
};

// The string-keyed counting trace::Metrics did before its counters got
// pre-resolved handles: every name built per event. The handle path must
// produce exactly this counter map.
class StringKeyedCounters final : public net::NetObserver {
 public:
  explicit StringKeyedCounters(net::Network& network) : network_(network) {}

  void on_host_send(const net::Delivery& d) override {
    counters.inc("send." + d.kind);
    counters.inc("send_bytes." + d.kind, d.bytes);
    const auto cluster = network_.host_cluster_index();
    if (cluster[static_cast<std::size_t>(d.from.value)] !=
        cluster[static_cast<std::size_t>(d.to.value)]) {
      counters.inc("send.intercluster." + d.kind);
      counters.inc("send_bytes.intercluster." + d.kind, d.bytes);
    }
  }
  void on_deliver(const net::Delivery& d) override {
    counters.inc("deliver." + d.kind);
  }
  void on_drop(const net::Delivery& d, net::DropReason reason) override {
    counters.inc(std::string("drop.") + to_string(reason));
    counters.inc("drop_kind." + d.kind);
  }
  void on_link_transmit(LinkId link, const net::Delivery& d) override {
    const char* cls =
        topo::to_string(network_.topology().link(link).link_class);
    counters.inc(std::string("link.") + cls);
    counters.inc(std::string("link.") + cls + "." + d.kind);
    counters.inc(std::string("link_bytes.") + cls, d.bytes);
  }

  util::CounterMap counters;

 private:
  net::Network& network_;
};

TEST(Metrics, CountsSendsByKind) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.send(HostId{0}, HostId{1}, "data");
  f.send(HostId{0}, HostId{1}, "info", 40);
  EXPECT_EQ(f.metrics->counter("send.data"), 2u);
  EXPECT_EQ(f.metrics->counter("send.info"), 1u);
  EXPECT_EQ(f.metrics->counter("send_bytes.data"), 200u);
}

TEST(Metrics, ClassifiesInterClusterSends) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");  // intra (hosts 0,1 in cluster 0)
  f.send(HostId{0}, HostId{2}, "data");  // inter (host 2 in cluster 1)
  f.send(HostId{0}, HostId{2}, "gapfill");
  f.send(HostId{0}, HostId{2}, "info", 40);
  EXPECT_EQ(f.metrics->counter("send.intercluster.data"), 1u);
  EXPECT_EQ(f.metrics->intercluster_data_sends(), 2u);
  EXPECT_EQ(f.metrics->intercluster_control_sends(), 1u);
}

TEST(Metrics, InterClusterClassificationTracksLinkState) {
  Fixture f;
  // Split cluster 0 by downing its internal cheap trunk: hosts 0 and 1 are
  // then in different ground-truth clusters.
  for (const auto& l : f.wan.topology.links()) {
    if (!l.is_access && l.link_class == topo::LinkClass::kCheap) {
      f.network->set_link_up(l.id, false);
    }
  }
  f.send(HostId{0}, HostId{1}, "data");
  EXPECT_EQ(f.metrics->counter("send.intercluster.data"), 1u);
}

TEST(Metrics, DeliverAndTransmitCounters) {
  Fixture f;
  f.send(HostId{0}, HostId{2}, "data");
  f.sim.run_until(sim::seconds(5));
  EXPECT_EQ(f.metrics->counter("deliver.data"), 1u);
  EXPECT_EQ(f.metrics->counter("link.expensive"), 1u);
  EXPECT_EQ(f.metrics->counter_prefix_sum("drop."), 0u);
}

TEST(Metrics, DropCountersByReason) {
  Fixture f;
  f.network->set_link_up(f.wan.trunks[0], false);
  f.send(HostId{0}, HostId{2}, "data");
  f.sim.run_until(sim::seconds(2));
  EXPECT_GE(f.metrics->counter_prefix_sum("drop."), 1u);
}

TEST(Metrics, LatencyBookkeeping) {
  Fixture f;
  f.metrics->record_broadcast(1);
  f.sim.run_until(sim::milliseconds(250));
  f.metrics->record_delivery(HostId{1}, 1);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{1}, 1), 0.25, 1e-9);
  EXPECT_LT(f.metrics->delivery_latency(HostId{2}, 1), 0.0);  // not delivered
  EXPECT_EQ(f.metrics->delivered_count(1), 1u);

  // First delivery wins; a duplicate later must not move the clock.
  f.sim.run_until(sim::seconds(1));
  f.metrics->record_delivery(HostId{1}, 1);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{1}, 1), 0.25, 1e-9);
}

TEST(Metrics, LatencySamplesFilterBySeqRange) {
  Fixture f;
  f.metrics->record_broadcast(1);
  f.metrics->record_broadcast(2);
  f.sim.run_until(sim::milliseconds(100));
  f.metrics->record_delivery(HostId{1}, 1);
  f.sim.run_until(sim::milliseconds(300));
  f.metrics->record_delivery(HostId{1}, 2);

  EXPECT_EQ(f.metrics->all_latencies().count(), 2u);
  const auto only_second = f.metrics->latencies_between(2, 2);
  ASSERT_EQ(only_second.count(), 1u);
  EXPECT_NEAR(only_second.mean(), 0.3, 1e-9);
}

TEST(Metrics, QueueBacklogPerServer) {
  Fixture f;
  // Saturate the trunk out of host 0's cluster head with large messages.
  for (int i = 0; i < 10; ++i) f.send(HostId{0}, HostId{2}, "data", 5000);
  f.sim.run_until(sim::seconds(30));
  const ServerId head = f.wan.cluster_head_server[0];
  EXPECT_GT(f.metrics->max_queue_backlog_seconds(head), 0.0);
  EXPECT_GT(f.metrics->queue_backlog(head).count(), 0u);
}

TEST(Metrics, LinkUtilizationAccumulatesWireTime) {
  Fixture f;
  const LinkId trunk = f.wan.trunks[0];
  EXPECT_EQ(f.metrics->link_busy_time(trunk), 0);
  EXPECT_EQ(f.metrics->link_utilization(trunk), 0.0);

  // One 700-byte message over the 56 kbit/s trunk = 100 ms of wire time.
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(10));
  EXPECT_NEAR(sim::to_seconds(f.metrics->link_busy_time(trunk)), 0.1, 0.01);
  EXPECT_NEAR(f.metrics->link_utilization(trunk), 0.01, 0.002);
  EXPECT_EQ(f.metrics->busiest_trunk(), trunk);
}

TEST(Metrics, UtilizationWindowRestartsOnReset) {
  Fixture f;
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(10));
  f.metrics->reset();
  EXPECT_EQ(f.metrics->link_busy_time(f.wan.trunks[0]), 0);
  EXPECT_FALSE(f.metrics->busiest_trunk().valid());
  // New window: one message in one second is ~10% utilization.
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(11));
  EXPECT_NEAR(f.metrics->link_utilization(f.wan.trunks[0]), 0.1, 0.02);
}

TEST(Metrics, CompletionCurveIsMonotoneAndEndsAtFraction) {
  Fixture f;
  // Two messages, 3 hosts expected each (host_count param = 3).
  f.metrics->record_broadcast(1);
  f.metrics->record_broadcast(2);
  f.metrics->record_delivery(HostId{0}, 1);  // t = 0
  f.sim.run_until(sim::seconds(7));
  f.metrics->record_delivery(HostId{1}, 1);
  f.sim.run_until(sim::seconds(12));
  f.metrics->record_delivery(HostId{0}, 2);

  const auto curve = f.metrics->completion_curve(5.0, 3);
  ASSERT_GE(curve.size(), 3u);
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
  // 3 of 6 expected deliveries happened.
  EXPECT_NEAR(curve.back().second, 0.5, 1e-9);
  // At t=5: only the first delivery (t=0) counted.
  EXPECT_NEAR(curve[1].second, 1.0 / 6.0, 1e-9);
}

TEST(Metrics, CompletionCurveEmptyWithoutDeliveries) {
  Fixture f;
  EXPECT_TRUE(f.metrics->completion_curve(1.0, 3).empty());
  EXPECT_THROW(f.metrics->completion_curve(0.0, 3), std::invalid_argument);
}

TEST(Metrics, CsvExports) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.metrics->record_broadcast(1);
  f.sim.run_until(sim::milliseconds(500));
  f.metrics->record_delivery(HostId{1}, 1);

  std::ostringstream counters;
  f.metrics->write_counters_csv(counters);
  EXPECT_NE(counters.str().find("name,value"), std::string::npos);
  EXPECT_NE(counters.str().find("send.data,1"), std::string::npos);

  std::ostringstream latencies;
  f.metrics->write_latencies_csv(latencies);
  EXPECT_NE(latencies.str().find("seq,host,latency_seconds"),
            std::string::npos);
  EXPECT_NE(latencies.str().find("1,1,0.5"), std::string::npos);
}

TEST(Metrics, CountsAgainAfterReset) {
  // reset() clears the counter map the handles point into; counting after
  // it must re-resolve them (a stale handle would write into freed memory
  // and the second window would read zero).
  Fixture f;
  f.send(HostId{0}, HostId{2}, "data");
  f.send(HostId{0}, HostId{1}, "info", 40);
  f.sim.run_until(sim::seconds(5));
  EXPECT_EQ(f.metrics->counter("send.data"), 1u);
  EXPECT_EQ(f.metrics->counter("link.expensive.data"), 1u);

  f.metrics->reset();
  EXPECT_TRUE(f.metrics->counters().all().empty());

  f.send(HostId{0}, HostId{2}, "data", 60);
  f.send(HostId{0}, HostId{2}, "data", 60);
  f.sim.run_until(sim::seconds(10));
  EXPECT_EQ(f.metrics->counter("send.data"), 2u);
  EXPECT_EQ(f.metrics->counter("send_bytes.data"), 120u);
  EXPECT_EQ(f.metrics->counter("send.intercluster.data"), 2u);
  EXPECT_EQ(f.metrics->counter("deliver.data"), 2u);
  EXPECT_EQ(f.metrics->counter("link.expensive"), 2u);
  EXPECT_EQ(f.metrics->counter("link.expensive.data"), 2u);
  EXPECT_EQ(f.metrics->counter("link_bytes.expensive"), 120u);
  EXPECT_FALSE(f.metrics->counters().all().contains("send.info"));
}

TEST(Metrics, HandlesReproduceStringKeyedCounters) {
  // Mixed kinds over both link classes, with drops, across a reset: the
  // pre-resolved handles must leave counters().all() exactly as the
  // per-event string keys did — same names, same values, nothing extra.
  Fixture f;
  StringKeyedCounters reference(*f.network);
  net::NetObserverFanout fanout;
  fanout.add(f.metrics.get());
  fanout.add(&reference);
  f.network->set_observer(&fanout);

  const std::vector<std::string> kinds = {"data", "info", "gapfill",
                                          "attach_req", "data_retx"};
  auto traffic = [&](int round) {
    std::size_t k = 0;
    for (const auto& from : f.wan.topology.hosts()) {
      for (const auto& to : f.wan.topology.hosts()) {
        if (from.id == to.id) continue;
        const std::string& kind = kinds[(k + static_cast<std::size_t>(round)) %
                                        kinds.size()];
        f.send(from.id, to.id, kind, 20 + 10 * k);
        ++k;
      }
    }
  };
  traffic(0);
  f.sim.run_until(sim::seconds(20));
  EXPECT_EQ(f.metrics->counters().all(), reference.counters.all());
  EXPECT_GT(f.metrics->counter("link.cheap"), 0u);
  EXPECT_GT(f.metrics->counter("link.expensive"), 0u);

  f.metrics->reset();
  reference.counters.clear();
  f.network->set_link_up(f.wan.trunks[0], false);  // drops, reclustering
  traffic(1);
  f.sim.run_until(sim::seconds(40));
  EXPECT_GT(f.metrics->counter_prefix_sum("drop."), 0u);
  EXPECT_EQ(f.metrics->counters().all(), reference.counters.all());
  f.network->set_observer(f.metrics.get());
}

TEST(Metrics, ResetClearsEverything) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.metrics->record_broadcast(1);
  f.metrics->reset();
  EXPECT_EQ(f.metrics->counter_prefix_sum(""), 0u);
  EXPECT_EQ(f.metrics->all_latencies().count(), 0u);
}

}  // namespace
}  // namespace rbcast::trace
