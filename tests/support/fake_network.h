// Test double for the network: a transport::Transport that connects
// protocol hosts with scriptable per-pair cost bits, drops and delays — so
// protocol logic can be exercised without the full net substrate.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/broadcast_host.h"
#include "net/message.h"
#include "sim/simulator.h"
#include "transport/transport.h"
#include "util/ids.h"

namespace rbcast::testing {

class FakeHub final : public transport::Transport {
 public:
  explicit FakeHub(sim::Simulator& simulator) : simulator_(simulator) {}

  [[nodiscard]] util::Scheduler& scheduler() override { return simulator_; }

  // (Re)binds `id`'s upcall; the endpoint lives as long as the hub.
  net::HostEndpoint& attach(HostId id, net::DeliveryFn deliver) override {
    receivers_[id] = std::move(deliver);
    auto& ep = endpoints_[id];
    if (ep == nullptr) ep = std::make_unique<Endpoint>(*this, id);
    return *ep;
  }

  // Messages still in flight to `id` are dropped on arrival.
  void detach(HostId id) override { receivers_.erase(id); }

  [[nodiscard]] bool attached(HostId id) const {
    return receivers_.contains(id);
  }

  // Sends as `from`, attached or not (tests inject traffic this way).
  void inject(HostId from, HostId to, std::any payload) {
    dispatch(from, to, std::move(payload), 64, "test", 0);
  }

  // Every message sent through any endpoint, in order.
  struct Sent {
    HostId from;
    HostId to;
    std::any payload;
    std::size_t bytes;
    std::string kind;
    sim::TimePoint at;
    net::TraceId trace_id{0};
  };
  std::vector<Sent> log;

  // One-way base delay from any host to any other.
  sim::Duration delay{sim::milliseconds(1)};

  // Marks the (symmetric) pair as connected only via expensive links:
  // deliveries between them carry cost bit 1.
  void set_expensive(HostId a, HostId b, bool expensive) {
    if (expensive) {
      expensive_pairs_.insert(key(a, b));
    } else {
      expensive_pairs_.erase(key(a, b));
    }
  }

  // Drops everything sent from a to b (one direction).
  void set_drop(HostId a, HostId b, bool drop) {
    if (drop) {
      dropped_.insert({a, b});
    } else {
      dropped_.erase({a, b});
    }
  }

  // Drops everything to and from `h` (simulates disconnection).
  void isolate(HostId h, const std::vector<HostId>& others, bool isolated) {
    for (HostId o : others) {
      if (o == h) continue;
      set_drop(h, o, isolated);
      set_drop(o, h, isolated);
    }
  }

  [[nodiscard]] std::size_t sent_count(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& s : log) {
      if (s.kind == kind) ++n;
    }
    return n;
  }

 private:
  class Endpoint final : public net::HostEndpoint {
   public:
    Endpoint(FakeHub& hub, HostId self) : hub_(hub), self_(self) {}
    [[nodiscard]] HostId self() const override { return self_; }
    void send(HostId to, std::any payload, std::size_t bytes,
              std::string kind, net::TraceId trace_id) override {
      hub_.dispatch(self_, to, std::move(payload), bytes, std::move(kind),
                    trace_id);
    }

   private:
    FakeHub& hub_;
    HostId self_;
  };

  static std::pair<HostId, HostId> key(HostId a, HostId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  void dispatch(HostId from, HostId to, std::any payload, std::size_t bytes,
                std::string kind, net::TraceId trace_id) {
    log.push_back(
        Sent{from, to, payload, bytes, kind, simulator_.now(), trace_id});
    if (dropped_.contains({from, to})) return;
    const bool expensive = expensive_pairs_.contains(key(from, to));
    net::Delivery d{.from = from,
                    .to = to,
                    .expensive = expensive,
                    .payload = std::move(payload),
                    .bytes = bytes,
                    .kind = std::move(kind),
                    .sent_at = simulator_.now(),
                    .hops = 1,
                    .trace_id = trace_id};
    simulator_.after(delay, [this, d = std::move(d)] {
      auto it = receivers_.find(d.to);
      if (it != receivers_.end()) it->second(d);
    });
  }

  sim::Simulator& simulator_;
  std::map<HostId, std::unique_ptr<Endpoint>> endpoints_;
  std::map<HostId, net::DeliveryFn> receivers_;
  std::set<std::pair<HostId, HostId>> expensive_pairs_;
  std::set<std::pair<HostId, HostId>> dropped_;
};

// Short protocol periods for clusters over a FakeHub (1 ms hub delay).
inline core::Config fast_config() {
  core::Config c;
  c.attach_period = sim::milliseconds(100);
  c.info_period_intra = sim::milliseconds(50);
  c.info_period_inter = sim::milliseconds(200);
  c.gapfill_period_neighbor = sim::milliseconds(100);
  c.gapfill_period_far = sim::milliseconds(300);
  c.parent_timeout = sim::seconds(1);
  c.attach_ack_timeout = sim::milliseconds(100);
  c.child_timeout = sim::seconds(3);
  c.data_bytes = 16;
  return c;
}

inline std::vector<HostId> host_ids(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

// BroadcastHosts over one FakeHub, for the ids `all` (or 0..n-1): node(i)
// is the host all[i], and delivered[i] lists its application deliveries.
struct HostCluster {
  sim::Simulator sim;
  FakeHub hub{sim};
  std::vector<std::unique_ptr<core::BroadcastHost>> nodes;
  std::vector<std::vector<util::Seq>> delivered;

  explicit HostCluster(int n, const core::Config& config = fast_config(),
                       HostId source = HostId{0})
      : HostCluster(host_ids(n), config, source) {}

  HostCluster(const std::vector<HostId>& all, const core::Config& config,
              HostId source)
      : delivered(all.size()) {
    util::RngFactory rngs(7);
    for (int i = 0; i < static_cast<int>(all.size()); ++i) {
      nodes.push_back(std::make_unique<core::BroadcastHost>(
          hub, all[static_cast<std::size_t>(i)], source, all, config,
          rngs.stream("jitter", i), [this, i](util::Seq seq, std::string_view) {
            delivered[static_cast<std::size_t>(i)].push_back(seq);
          }));
    }
  }

  core::BroadcastHost& node(int i) {
    return *nodes[static_cast<std::size_t>(i)];
  }
  void start_all() {
    for (auto& n : nodes) n->start();
  }
  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
};

}  // namespace rbcast::testing
