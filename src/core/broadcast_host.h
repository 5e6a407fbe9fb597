// BroadcastHost — one host's protocol, driven by a runtime.
//
// Runs a HostProtocol (host_protocol.h, where every handler is defined) over
// a transport::Transport — the simulator's SimTransport, real sockets'
// UdpTransport or a test fake, unmodified: the periodic activities with phase
// jitter, the attach-acknowledgment timer, the paper's single-destination
// send + cost-bit delivery, and metrics registration. The instance whose
// id equals `source` plays the source role. Delivery to the application
// is exactly once per message, not necessarily in order — the paper
// deliberately relaxes ordering to cut delay (Section 1).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/host_protocol.h"
#include "net/message.h"
#include "transport/transport.h"
#include "util/metrics_registry.h"
#include "util/scheduler.h"
#include "util/rng.h"

namespace rbcast::core {

class BroadcastHost : private HostProtocol::Effects {
 public:
  // Called on first receipt of each data message (unordered delivery).
  // The view aliases the refcounted Payload held in HostState; copy it if
  // it must outlive the callback.
  using AppDeliverFn = std::function<void(Seq, std::string_view body)>;
  using Counters = HostProtocol::Counters;

  // Attaches `self` to `transport` (which must outlive this object),
  // wiring on_delivery as the upcall and running the periodic tasks on the
  // transport's scheduler; the destructor detaches. `rng` drives the phase
  // jitter of the periodic tasks (so hosts do not act in lock-step) and
  // the far gap-fill target picks.
  BroadcastHost(transport::Transport& transport, HostId self, HostId source,
                std::vector<HostId> all_hosts, Config config, util::Rng rng,
                AppDeliverFn app_deliver = {});

  ~BroadcastHost();

  BroadcastHost(const BroadcastHost&) = delete;
  BroadcastHost& operator=(const BroadcastHost&) = delete;

  // Arms the periodic activities. Call once, after the network knows how
  // to deliver to this host.
  void start();

  // Network upcall: a message for this host arrived (with its cost bit).
  void on_delivery(const net::Delivery& delivery);

  // Source API: appends the next message to the broadcast stream.
  // Precondition: is_source().
  Seq broadcast(std::string body) {
    return protocol_.broadcast(scheduler_.now(), std::move(body), *this);
  }

  // --- introspection ------------------------------------------------------

  [[nodiscard]] HostId self() const { return protocol_.self(); }
  [[nodiscard]] bool is_source() const { return protocol_.is_source(); }
  [[nodiscard]] const HostState& state() const { return protocol_.state(); }
  [[nodiscard]] HostId parent() const { return state().parent(); }
  [[nodiscard]] const SeqSet& info() const { return state().info(); }
  [[nodiscard]] const Config& config() const { return protocol_.config(); }
  [[nodiscard]] Seq last_broadcast_seq() const {
    return protocol_.last_broadcast_seq();
  }
  [[nodiscard]] const Counters& counters() const {
    return protocol_.counters();
  }

  // Forces the attachment procedure to run now (tests).
  void run_attachment_now() { attachment_round(); }

  // Forces one gap-fill round now (tests).
  void run_gapfill_neighbor_now() {
    protocol_.gapfill_round_neighbor(scheduler_.now(), *this);
  }
  void run_gapfill_far_now() {
    protocol_.gapfill_round_far(scheduler_.now(), *this);
  }

  // Seeds CLUSTER_i (static cluster knowledge mode, or "some information
  // to the contrary" at initialization — Section 4.2). Call before start().
  void seed_cluster(const std::vector<HostId>& cluster) {
    protocol_.seed_cluster(cluster);
  }

  // Installs a protocol-event observer (nullptr to remove).
  void set_observer(ProtocolObserver* observer) {
    protocol_.set_observer(observer);
  }

  // Registers this host's counters and attachment/watermark gauges into
  // `registry` under the shared host.* names, labelled `labels` (e.g.
  // "host=\"3\"" — must be unique per host within one registry). The
  // registration is observation-only and is dropped automatically when
  // the host is destroyed. At most one registry per host.
  void register_metrics(util::MetricsRegistry& registry,
                        const std::string& labels);

 private:
  // HostProtocol::Effects: the runtime side of the automaton's effects.
  void send(HostId to, ProtocolMessage m) override;
  void deliver(Seq seq, std::string_view body) override {
    if (app_deliver_) app_deliver_(seq, body);
  }
  void arm_attach_timeout(HostId candidate) override;
  void cancel_attach_timeout() override;

  void attachment_round();

  util::Scheduler& scheduler_;
  transport::Transport& transport_;
  // Before endpoint_: a constructor that throws leaves nothing attached.
  HostProtocol protocol_;
  net::HostEndpoint& endpoint_;
  AppDeliverFn app_deliver_;

  // Timer of the attach handshake in flight (HostProtocol::pending_attach).
  util::EventId attach_timer_{};

  // Metric registration to undo on destruction (register_metrics).
  util::MetricsRegistry* metrics_registry_{nullptr};
  std::string metrics_labels_;
  std::vector<std::string> metrics_names_;

  // Periodic tasks: attachment, INFO intra/inter, gap fill neighbor/far,
  // maintenance — started in this order, which fixes the rng draws.
  // Declared last: they capture `this` and must die first.
  std::vector<std::unique_ptr<util::PeriodicTask>> tasks_;
};

}  // namespace rbcast::core
