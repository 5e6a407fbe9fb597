// udp32_loopback: 32 hosts on real UDP sockets over 127.0.0.1, wired the
// way tools/rbcast_node.cpp wires them — one util::RealTimeScheduler, one
// transport::UdpTransport and the Transport-seam BroadcastHost constructor
// — in one process, one thread, one poll loop. Impairment is node_32.json's
// (5% loss, 2% duplication, 10% reordering, up to 10 ms delay), coalescing
// and authentication are on, and the source streams 40 msg/s open loop:
// each message is due at a fixed time, and its latency counts from then.
//
// The traced run interposes timing decorators the benchmark wires itself:
// a Transport (upcall and send spans), a Scheduler (timer spans) and a
// PayloadCodec (encode/decode spans). The untraced run uses none of them.
#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/broadcast_host.h"
#include "core/wire_codec.h"
#include "transport/udp_transport.h"
#include "util/real_time_scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace {

using namespace rbcast;

constexpr int kHosts = 32;
constexpr double kRate = 40;           // broadcasts per wall second
constexpr double kWarmupS = 1.0;       // tree forms around one broadcast
constexpr double kDrainS = 2.0;        // after the last due time
constexpr std::size_t kBodyBytes = 64;
// Traced run: root spans plus system CPU must match process CPU this
// closely (what is left is the poll loop, frame decoding and timer
// bookkeeping outside any span).
constexpr double kAccountingTolerance = 0.35;

constexpr const char* kUpcallSpans[] = {
    "core.upcall.data",       "core.upcall.gapfill",   "core.upcall.info",
    "core.upcall.attach_req", "core.upcall.attach_ack", "core.upcall.detach",
    "core.upcall.other"};
static_assert(std::size(kUpcallSpans) == kKindCount + 1);

// rbcast_node's real-time protocol defaults, plus node_32_batch.json's
// coalescing and authentication.
core::Config protocol_config() {
  core::Config p;
  p.attach_period = util::milliseconds(200);
  p.info_period_intra = util::milliseconds(100);
  p.info_period_inter = util::milliseconds(400);
  p.gapfill_period_neighbor = util::milliseconds(200);
  p.gapfill_period_far = util::milliseconds(800);
  p.parent_timeout = util::seconds(2);
  p.attach_ack_timeout = util::milliseconds(300);
  p.child_timeout = util::seconds(6);
  p.gapfill_suppress_period = util::milliseconds(600);
  p.data_bytes = kBodyBytes;
  p.batch_flush_delay = util::milliseconds(5);
  p.batch_max_bytes = 1200;
  p.auth_enabled = true;
  return p;
}

// node_32.json's system seeds: host phase jitter and the impairment draws
// stay fixed; the benchmark's --seed varies the bodies and arrivals.
constexpr std::uint64_t kHostSeed = 1;
constexpr std::uint64_t kImpairmentSeed = 7;

transport::UdpTransport::Config transport_config() {
  transport::UdpTransport::Config c;
  for (int h = 0; h < kHosts; ++h) {
    c.peers.push_back({HostId{h}, "127.0.0.1", 0});
  }
  c.impairment.loss = 0.05;
  c.impairment.duplicate = 0.02;
  c.impairment.reorder = 0.1;
  c.impairment.delay_max = util::milliseconds(10);
  c.impairment.seed = kImpairmentSeed;
  const core::Config p = protocol_config();
  c.coalesce = transport::CoalescerConfig{p.batch_flush_delay,
                                          p.batch_max_bytes};
  return c;
}

// --- traced-run decorators ---------------------------------------------------

class TimingScheduler final : public util::Scheduler {
 public:
  TimingScheduler(util::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] util::TimePoint now() const override { return inner_.now(); }
  util::EventId after(util::Duration d, Action action) override {
    return inner_.after(d, [this, action = std::move(action)] {
      auto span = tracer_.span("core.timer");
      action();
    });
  }
  bool cancel(util::EventId id) override { return inner_.cancel(id); }

 private:
  util::Scheduler& inner_;
  Tracer& tracer_;
};

class TimingCodec final : public transport::PayloadCodec {
 public:
  TimingCodec(const transport::PayloadCodec& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  bool encode(const std::any& payload, std::string& out) const override {
    auto span = tracer_.span("transport.encode");
    return inner_.encode(payload, out);
  }
  [[nodiscard]] std::any decode(const char* data,
                                std::size_t size) const override {
    auto span = tracer_.span("transport.decode");
    return inner_.decode(data, size);
  }

 private:
  const transport::PayloadCodec& inner_;
  Tracer& tracer_;
};

class TimingEndpoint final : public net::HostEndpoint {
 public:
  TimingEndpoint(net::HostEndpoint& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] HostId self() const override { return inner_.self(); }
  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            net::TraceId trace_id) override {
    auto span = tracer_.span("transport.send", net::trace_seq(trace_id));
    inner_.send(to, std::move(payload), bytes, std::move(kind), trace_id);
  }

 private:
  net::HostEndpoint& inner_;
  Tracer& tracer_;
};

class TimingTransport final : public transport::Transport {
 public:
  TimingTransport(transport::Transport& inner, util::Scheduler& scheduler,
                  Tracer& tracer)
      : inner_(inner), scheduler_(scheduler), tracer_(tracer) {}
  util::Scheduler& scheduler() override { return scheduler_; }
  net::HostEndpoint& attach(HostId host, net::DeliveryFn deliver) override {
    auto span = tracer_.span("transport.bind");
    net::HostEndpoint& inner = inner_.attach(
        host, [this, deliver = std::move(deliver)](const net::Delivery& d) {
          auto upcall = tracer_.span(kUpcallSpans[kind_index(d.kind)],
                                     net::trace_seq(d.trace_id));
          deliver(d);
        });
    auto& ep = endpoints_[host.value];
    ep = std::make_unique<TimingEndpoint>(inner, tracer_);
    return *ep;
  }
  void detach(HostId host) override {
    inner_.detach(host);
    endpoints_.erase(host.value);
  }

 private:
  transport::Transport& inner_;
  util::Scheduler& scheduler_;
  Tracer& tracer_;
  std::map<HostId::value_type, std::unique_ptr<TimingEndpoint>> endpoints_;
};

// Frames, bytes and kinds the hosts hand to the transport, and frames it
// delivers, through UdpTransport's own observer hook (both runs).
class UdpCounter final : public net::NetObserver {
 public:
  void on_host_send(const net::Delivery& d) override {
    ++frames;
    bytes += d.bytes;
    ++sends[kind_index(d.kind)];
  }
  void on_deliver(const net::Delivery& d) override {
    ++upcalls[kind_index(d.kind)];
  }
  void on_drop(const net::Delivery&, net::DropReason reason) override {
    ++drops[static_cast<std::size_t>(reason)];
  }

  std::uint64_t frames{0};
  std::uint64_t bytes{0};
  std::array<std::uint64_t, kKindCount + 1> sends{};
  std::array<std::uint64_t, kKindCount + 1> upcalls{};
  std::array<std::uint64_t, 5> drops{};
};

// One wired system: transport and hosts over a scheduler. Members die in
// reverse order, so the hosts detach before the transports they use.
struct Node {
  std::unique_ptr<transport::UdpTransport> udp;
  std::unique_ptr<TimingScheduler> timing_scheduler;
  std::unique_ptr<TimingTransport> timing_transport;
  std::vector<std::unique_ptr<core::BroadcastHost>> hosts;
};

using DeliverFn = std::function<void(int host, util::Seq, std::string_view)>;

// Builds the transport and the hosts and starts them; the set-up the
// setup_s metric times.
std::unique_ptr<Node> set_up(util::RealTimeScheduler& scheduler,
                             const transport::PayloadCodec& codec,
                             Tracer& tracer,
                             const DeliverFn& deliver) {
  auto node = std::make_unique<Node>();
  node->udp = std::make_unique<transport::UdpTransport>(
      scheduler, codec, transport_config());
  transport::Transport* t = node->udp.get();
  if (tracer.enabled()) {
    node->timing_scheduler =
        std::make_unique<TimingScheduler>(scheduler, tracer);
    node->timing_transport = std::make_unique<TimingTransport>(
        *node->udp, *node->timing_scheduler, tracer);
    t = node->timing_transport.get();
  }
  std::vector<HostId> all;
  for (int h = 0; h < kHosts; ++h) all.push_back(HostId{h});
  const util::RngFactory rngs(kHostSeed);
  for (int h = 0; h < kHosts; ++h) {
    core::BroadcastHost::AppDeliverFn app;
    if (deliver) {
      app = [&deliver, h](util::Seq seq, std::string_view body) {
        deliver(h, seq, body);
      };
    }
    node->hosts.push_back(std::make_unique<core::BroadcastHost>(
        *t, HostId{h}, HostId{0}, all, protocol_config(),
        rngs.stream("host.jitter", static_cast<std::uint64_t>(h)),
        std::move(app)));
  }
  auto span = tracer.span("core.start");
  for (auto& host : node->hosts) host->start();
  return node;
}

}  // namespace

RunResult run_udp(const RunOptions& options) {
  if (options.workload != "udp32_loopback") {
    throw std::invalid_argument("unknown UDP workload: " + options.workload);
  }
  RunResult result;
  Tracer tracer(options.trace);
  const core::ProtocolCodec plain_codec;
  const TimingCodec timing_codec(plain_codec, tracer);
  const transport::PayloadCodec& codec =
      tracer.enabled() ? static_cast<const transport::PayloadCodec&>(
                             timing_codec)
                       : plain_codec;

  // Extra set-ups (built, started, torn down unrun) before and after the
  // stream, so setup_s is a median of many taken across the run. Host time
  // is scaled to the nominal host (see host_time_scale()).
  std::vector<double> setups;
  auto extra_setups = [&] {
    const double scale = host_time_scale();
    for (int i = 0; i < 25 && !tracer.enabled(); ++i) {
      util::RealTimeScheduler scheduler;
      const double t0 = wall_seconds();
      auto node = set_up(scheduler, codec, tracer, {});
      setups.push_back((wall_seconds() - t0) * scale);
    }
  };
  extra_setups();

  // --- the measured run ------------------------------------------------------
  const double stream_s =
      std::max(1.0, options.seconds - kWarmupS - kDrainS - 1.0);
  const auto stream_msgs = static_cast<std::size_t>(stream_s * kRate);
  const std::size_t messages = 1 + stream_msgs;
  std::vector<std::string> bodies(messages + 1);
  for (std::size_t seq = 1; seq <= messages; ++seq) {
    bodies[seq] = body_for(options.seed, seq, kBodyBytes);
  }
  std::vector<util::TimePoint> due(messages + 1, 0);
  std::vector<std::vector<util::TimePoint>> first(
      kHosts, std::vector<util::TimePoint>(messages + 1, -1));
  util::Seq broadcast = 0;

  util::RealTimeScheduler scheduler;
  const DeliverFn deliver = [&](int h, util::Seq seq, std::string_view body) {
    const auto hi = static_cast<std::size_t>(h);
    if (seq == 0 || seq > broadcast) {
      result.fail("host " + std::to_string(h) + " delivered seq " +
                  std::to_string(seq) + " that was never broadcast");
      return;
    }
    if (first[hi][seq] >= 0) {
      result.fail("host " + std::to_string(h) + " delivered seq " +
                  std::to_string(seq) + " twice");
      return;
    }
    first[hi][seq] = scheduler.now();
    if (body != bodies[seq]) {
      result.fail("host " + std::to_string(h) + " seq " +
                  std::to_string(seq) + ": body differs from the broadcast");
    }
  };

  // Timing the reference inside the loop would stall it, so it is timed
  // beside the run, in a child process, and scales the whole run.
  ScaleSampler sampler;
  const double cpu0 = cpu_seconds();
  const double sys0 = sys_cpu_seconds();
  const double t0 = wall_seconds();
  auto node = set_up(scheduler, codec, tracer, deliver);
  const double run_setup = wall_seconds() - t0;
  UdpCounter counter;
  node->udp->set_observer(&counter);
  core::BroadcastHost& source = *node->hosts.front();

  // Load generator: fires every message whose due time has passed, so a
  // stalled loop sends late rather than skipping, and is charged for it.
  double late_max_ms = 0;
  auto send = [&](std::size_t seq) {
    auto span = tracer.span("loadgen.broadcast", seq);
    broadcast = seq;  // the source delivers to itself inside
    if (source.broadcast(bodies[seq]) != seq) {
      throw std::logic_error("source assigned an unexpected seq");
    }
  };
  const util::TimePoint start = scheduler.now();
  due[1] = start;
  send(1);
  const util::TimePoint stream_at = start + util::from_seconds(kWarmupS);
  const std::vector<double> offsets =
      arrival_offsets(options.seed, stream_msgs, kRate);
  for (std::size_t seq = 2; seq <= messages; ++seq) {
    due[seq] = stream_at + util::from_seconds(offsets[seq - 2]);
  }
  std::size_t next = 2;
  std::function<void()> generate = [&] {
    const util::TimePoint now = scheduler.now();
    while (next <= messages && due[next] <= now) {
      late_max_ms = std::max(late_max_ms,
                             util::to_seconds(now - due[next]) * 1e3);
      send(next++);
    }
    if (next <= messages) scheduler.after(due[next] - now, generate);
  };
  scheduler.after(stream_at - start, generate);

  std::size_t intervals_max = 0;
  std::function<void()> sample = [&] {
    for (const auto& host : node->hosts) {
      intervals_max = std::max(intervals_max, host->info().intervals().size());
    }
    scheduler.after(util::milliseconds(50), sample);
  };
  scheduler.after(util::milliseconds(50), sample);

  const util::TimePoint end = due[messages] + util::from_seconds(kDrainS);
  scheduler.run_until(end);
  const double run_wall = wall_seconds() - t0;
  const double run_cpu = cpu_seconds() - cpu0;
  const double run_sys = sys_cpu_seconds() - sys0;
  const double run_scale = sampler.finish();
  setups.push_back(run_setup * run_scale);

  // --- outcome ---------------------------------------------------------------
  util::Samples latency;
  std::uint64_t delivered = 0;
  for (std::size_t h = 1; h < kHosts; ++h) {
    for (std::size_t seq = 1; seq <= messages; ++seq) {
      if (first[h][seq] < 0) continue;
      ++delivered;
      if (seq >= 2) latency.add(util::to_seconds(first[h][seq] - due[seq]));
    }
  }
  std::uint64_t dup = 0, deliveries = 0, attaches = 0, attach_timeouts = 0,
                gapfills = 0, auth_rejects = 0, decode_errors = 0;
  for (const auto& host : node->hosts) {
    const auto& c = host->counters();
    dup += c.duplicates_discarded;
    deliveries += c.deliveries;
    attaches += c.attaches_completed;
    attach_timeouts += c.attach_timeouts;
    gapfills += c.gapfills_sent;
    auth_rejects += c.auth_rejects;
    decode_errors += c.decode_errors;
    if (host->info().max_seq() > messages) {
      result.fail("host " + std::to_string(host->self().value) +
                  " holds a seq beyond the last broadcast");
    }
  }
  const auto& st = node->udp->stats();
  const std::uint64_t transport_errors =
      st.frame_decode_errors + st.payload_decode_errors + st.misdirected +
      st.send_errors + st.recv_errors + st.recv_unknown_peer;
  if (auth_rejects != 0 || decode_errors != 0 || transport_errors != 0) {
    result.fail("auth_rejects=" + std::to_string(auth_rejects) +
                " decode_errors=" + std::to_string(decode_errors) +
                " transport_errors=" + std::to_string(transport_errors));
  }
  node->udp->set_observer(nullptr);
  extra_setups();

  const std::uint64_t attempted =
      static_cast<std::uint64_t>(messages) * (kHosts - 1);
  result.attempted = attempted;
  result.failed = attempted - delivered;
  const auto d = static_cast<double>(std::max<std::uint64_t>(delivered, 1));

  result.add_e2e("setup_s", median(setups), "s",
                 static_cast<std::uint64_t>(setups.size()));
  // Real time is the clock here, so this is wall seconds served per
  // second of process CPU.
  result.add_e2e("sim_speed",
                 run_wall / std::max(run_cpu * run_scale, 1e-9),
                 "virtual_s/s");
  result.add_e2e("cpu_us_per_delivery", run_cpu * run_scale * 1e6 / d,
                 "us");
  result.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.add_e2e("delivery_p50_s", latency.quantile(0.5), "s",
                 latency.count());
  result.add_e2e("delivery_p99_s", latency.quantile(0.99), "s",
                 latency.count());
  result.add_e2e("datagrams_per_delivery",
                 static_cast<double>(st.datagrams_sent) / d, "count");
  result.add_e2e("bytes_per_delivery", static_cast<double>(counter.bytes) / d,
                 "bytes");
  const double undelivered =
      static_cast<double>(result.failed) / static_cast<double>(attempted);
  result.set_layer("undelivered_frac", undelivered);

  std::ostringstream info;
  info << "stream " << stream_msgs << " msgs at " << kRate
       << " msg/s over 127.0.0.1 loopback (not a real link); generator ran "
          "at most "
       << late_max_ms << " ms late";
  result.info.push_back(info.str());
  std::ostringstream sends;
  sends << "sends";
  for (std::size_t k = 0; k < kKindCount; ++k) {
    sends << " " << kKinds[k] << "=" << counter.sends[k];
  }
  sends << "  datagrams=" << st.datagrams_sent;
  result.info.push_back(sends.str());
  std::ostringstream extra;
  extra << "undelivered_frac " << undelivered << " ratio (" << result.failed
        << " of " << attempted << " pairs)";
  result.info.push_back(extra.str());
  std::ostringstream scaled;
  scaled << "host time scaled by " << run_scale
         << " (sampled beside the run); unscaled sim_speed "
         << run_wall / std::max(run_cpu, 1e-9) << ", cpu_us_per_delivery "
         << run_cpu * 1e6 / d;
  result.info.push_back(scaled.str());

  // --- per-layer ---------------------------------------------------------------
  for (std::size_t k = 0; k < kKindCount; ++k) {
    result.set_layer(std::string("net.sends.") + kKinds[k],
                     static_cast<double>(counter.sends[k]));
    result.set_layer(std::string("core.upcalls.") + kKinds[k],
                     static_cast<double>(counter.upcalls[k]));
  }
  result.set_layer("net.drops.random_loss",
                   static_cast<double>(counter.drops[static_cast<std::size_t>(
                       net::DropReason::kRandomLoss)]));
  result.set_layer("net.drops.no_route",
                   static_cast<double>(counter.drops[static_cast<std::size_t>(
                       net::DropReason::kNoRoute)]));
  result.set_layer("transport.datagrams",
                   static_cast<double>(st.datagrams_sent));
  result.set_layer("transport.frames_per_datagram",
                   static_cast<double>(counter.frames) /
                       static_cast<double>(std::max<std::uint64_t>(
                           st.datagrams_sent, 1)));
  result.set_layer("transport.sys_cpu_s", run_sys);
  result.set_layer("transport.errors", static_cast<double>(transport_errors));
  result.set_layer("transport.impair_drops",
                   static_cast<double>(st.impair_drops));
  result.set_layer("core.duplicate_ratio",
                   static_cast<double>(dup + deliveries) /
                       static_cast<double>(std::max<std::uint64_t>(
                           deliveries, 1)));
  result.set_layer("core.attaches_completed", static_cast<double>(attaches));
  result.set_layer("core.attach_timeouts",
                   static_cast<double>(attach_timeouts));
  result.set_layer("core.gapfills_sent", static_cast<double>(gapfills));
  result.set_layer("core.auth_rejects", static_cast<double>(auth_rejects));
  result.set_layer("core.decode_errors", static_cast<double>(decode_errors));
  result.set_layer("util.info_intervals_max",
                   static_cast<double>(intervals_max));
  result.set_layer("loadgen.late_max_ms", late_max_ms);

  if (tracer.enabled()) {
    const auto totals = tracer.totals();
    auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? Tracer::Totals{} : it->second;
    };
    result.set_layer("transport.bind_s", total("transport.bind").total_s);
    result.set_layer("core.start_s", total("core.start").total_s);
    result.set_layer("transport.send_s", total("transport.send").total_s);
    result.set_layer("transport.codec_s",
                     total("transport.encode").total_s +
                         total("transport.decode").total_s);
    for (std::size_t k = 0; k < kKindCount; ++k) {
      result.set_layer(std::string("core.handle_s.") + kKinds[k],
                       total(kUpcallSpans[k]).total_s);
    }
    const Tracer::Totals timer = total("core.timer");
    result.set_layer("core.timers_fired", static_cast<double>(timer.count));
    result.set_layer("core.timer_s", timer.total_s);
    for (const auto& [layer, self] : tracer.self_by_layer()) {
      result.set_layer(layer + ".self_s", self);
    }
    // Spans cover user time in the hosts and the codec; the socket calls
    // (recvfrom on readiness, sendto on coalescer flushes) run outside
    // them and show as system time.
    const double accounted =
        (tracer.root_total_s() + run_sys) / std::max(run_cpu, 1e-9);
    result.set_layer("trace.accounted_cpu_frac", accounted);
    if (accounted < 1 - kAccountingTolerance ||
        accounted > 1 + kAccountingTolerance) {
      result.fail("spans plus system time account for " +
                  std::to_string(accounted) + " of process CPU");
    }
    if (!options.spans_out.empty() && !tracer.write_jsonl(options.spans_out)) {
      result.fail("cannot write spans to " + options.spans_out);
    }
  }
  return result;
}

}  // namespace perfbench
