// The two discrete-event workloads, driven through harness::Experiment —
// the composition root every bench, test and rbcast_sim uses — so the
// benchmark times the program users run, trace::Metrics included.
//
//   wan96_control        24 clusters x 4 hosts on a ring of trunks, no loss,
//                        no batching, 0.5 msg/s after a control-plane warm-up.
//   wan32_lossy_batched  8 x 4 ring, 5% trunk / 1% cheap-link loss, one trunk
//                        outage mid-stream, 64-byte bodies at 5 msg/s,
//                        coalescing on with a 28-byte per-datagram charge.
//
// Both are open loop: every broadcast fires at its due virtual time,
// whatever progress the hosts make.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <type_traits>

#include "bench.h"
#include "rbcast.h"

namespace perfbench {

namespace {

using namespace rbcast;

struct DesSpec {
  // Seeds the simulated system itself (topology, link loss, host phase
  // jitter). Fixed per workload: the tree a scenario forms depends on it,
  // and with it latency (p50 1.2-4.0 s across seeds on wan96_control), so
  // varying it per run would drown the effect of a code change. The
  // benchmark's --seed varies the workload instead: bodies and arrivals.
  std::uint64_t system_seed{15};  // bench_scale's 96-host seed
  // Streams pooled into one run's protocol metrics (see run_des), and how
  // many of them share one warm-up.
  int streams{1};
  int streams_per_round{1};
  int clusters{0};
  int hosts_per_cluster{4};
  double trunk_loss{0};
  double cheap_loss{0};
  double rate{0};  // broadcasts per virtual second
  double warmup_s{0};
  double stream_s{0};
  double drain_s{0};
  std::size_t data_bytes{256};
  bool batched{false};
  // Outage of the first trunk, from stream start + outage_at_s, for
  // outage_len_s (0: none).
  double outage_at_s{0};
  double outage_len_s{0};
};

DesSpec spec_for(const std::string& workload) {
  DesSpec s;
  if (workload == "wan96_control") {
    s.clusters = 24;
    s.streams = 8;
    // The warm-up is most of the host time here: more rounds, each with
    // fewer streams, give sim_speed more warm-up samples per run.
    s.streams_per_round = 2;
    s.rate = 0.5;
    s.warmup_s = 30 + 2 * 96;  // bench_scale's settle time at 96 hosts
    s.stream_s = 120;
    s.drain_s = 60;
  } else if (workload == "wan32_lossy_batched") {
    s.clusters = 8;
    s.streams = 16;
    s.streams_per_round = 16;
    s.trunk_loss = 0.05;
    s.cheap_loss = 0.01;
    s.rate = 5;
    s.warmup_s = 30 + 2 * 32;
    s.stream_s = 120;
    s.drain_s = 60;
    s.data_bytes = 64;
    s.batched = true;
    s.outage_at_s = 30;
    s.outage_len_s = 10;
  } else {
    throw std::invalid_argument("unknown DES workload: " + workload);
  }
  return s;
}

// The benches' steady-state protocol parameters with Section 6's scaling
// of the inter-cluster periods beyond 16 hosts (bench/support/common.h's
// scaled_protocol_config).
core::Config protocol_config(const DesSpec& s) {
  core::Config c;
  c.attach_period = sim::seconds(1);
  c.info_period_intra = sim::milliseconds(500);
  c.info_period_inter = sim::seconds(2);
  c.gapfill_period_neighbor = sim::seconds(1);
  c.gapfill_period_far = sim::seconds(4);
  c.parent_timeout = sim::seconds(6);
  c.attach_ack_timeout = sim::seconds(2);
  const double factor =
      std::max(1.0, static_cast<double>(s.clusters * s.hosts_per_cluster) /
                        16.0);
  auto scale = [&](sim::Duration d) {
    return static_cast<sim::Duration>(static_cast<double>(d) * factor);
  };
  c.info_period_inter = scale(c.info_period_inter);
  c.gapfill_period_far = scale(c.gapfill_period_far);
  c.data_bytes = s.data_bytes;
  if (s.batched) {
    c.batch_flush_delay = sim::milliseconds(5);
    c.batch_max_bytes = 1200;
  }
  return c;
}

topo::Wan build_topology(const DesSpec& s) {
  topo::ClusteredWanOptions wan;
  wan.clusters = s.clusters;
  wan.hosts_per_cluster = s.hosts_per_cluster;
  wan.shape = topo::TrunkShape::kRing;
  wan.cheap.loss_probability = s.cheap_loss;
  wan.expensive.loss_probability = s.trunk_loss;
  wan.seed = s.system_seed;
  return topo::make_clustered_wan(wan);
}

harness::ScenarioOptions scenario_options(const DesSpec& s) {
  harness::ScenarioOptions o;
  o.protocol = protocol_config(s);
  o.seed = s.system_seed;
  if (s.batched) o.net.per_packet_overhead_bytes = 28;  // E5b's charge
  return o;
}

// Network-level counts taken in front of trace::Metrics: datagrams as the
// network carries them, and the frames, bytes and kinds the hosts handed
// to the transport (batches unpacked). In the traced run it also times
// every call it forwards to Metrics, the only network observer otherwise.
class NetCounter final : public net::NetObserver {
 public:
  NetCounter(net::Network& network, net::NetObserver& inner, Tracer& tracer)
      : network_(network), inner_(inner), tracer_(tracer) {}

  void on_host_send(const net::Delivery& d) override {
    ++datagrams;
    for_each_frame(d, [&](const std::string& kind, std::size_t bytes) {
      ++frames;
      this->bytes += bytes;
      const std::size_t k = kind_index(kind);
      ++sends[k];
      if (k <= 1 && crosses_clusters(d.from, d.to)) ++intercluster_data;
    });
    auto span = tracer_.span("trace.observer", 0, false);
    inner_.on_host_send(d);
  }
  void on_deliver(const net::Delivery& d) override {
    for_each_frame(d, [&](const std::string& kind, std::size_t) {
      ++upcalls[kind_index(kind)];
    });
    auto span = tracer_.span("trace.observer", 0, false);
    inner_.on_deliver(d);
  }
  void on_drop(const net::Delivery& d, net::DropReason reason) override {
    ++drops[static_cast<std::size_t>(reason)];
    auto span = tracer_.span("trace.observer", 0, false);
    inner_.on_drop(d, reason);
  }
  void on_link_transmit(LinkId link, const net::Delivery& d) override {
    ++link_transmits;
    auto span = tracer_.span("trace.observer", 0, false);
    inner_.on_link_transmit(link, d);
  }
  void on_queue_backlog(ServerId server, LinkId link,
                        sim::Duration backlog) override {
    queue_wait_max = std::max(queue_wait_max, backlog);
    auto span = tracer_.span("trace.observer", 0, false);
    inner_.on_queue_backlog(server, link, backlog);
  }

  std::uint64_t datagrams{0};
  std::uint64_t frames{0};
  std::uint64_t bytes{0};
  std::uint64_t intercluster_data{0};
  std::uint64_t link_transmits{0};
  std::array<std::uint64_t, kKindCount + 1> sends{};
  std::array<std::uint64_t, kKindCount + 1> upcalls{};
  std::array<std::uint64_t, 5> drops{};
  sim::Duration queue_wait_max{0};

 private:
  template <typename Fn>
  static void for_each_frame(const net::Delivery& d, Fn&& fn) {
    if (const auto* batch = std::any_cast<transport::SimBatch>(&d.payload)) {
      for (const auto& item : batch->items) fn(item.kind, item.bytes);
    } else {
      fn(d.kind, d.bytes);
    }
  }

  bool crosses_clusters(HostId a, HostId b) {
    if (cluster_epoch_ != network_.topology_epoch()) {
      cluster_index_ = network_.host_cluster_index();
      cluster_epoch_ = network_.topology_epoch();
    }
    return cluster_index_[static_cast<std::size_t>(a.value)] !=
           cluster_index_[static_cast<std::size_t>(b.value)];
  }

  net::Network& network_;
  net::NetObserver& inner_;
  Tracer& tracer_;
  std::vector<int> cluster_index_;
  std::uint64_t cluster_epoch_{~0ULL};
};

// First receipts, checked as they happen: each (host, seq) at most once,
// only seqs the source broadcast, and the body byte-equal to the one
// broadcast. Feeds the delivery digest over (host, seq, virtual time).
class DeliveryCheck final : public core::ProtocolObserver {
 public:
  DeliveryCheck(harness::Experiment& e, const std::vector<std::string>& bodies,
                RunResult& result)
      : e_(e),
        bodies_(bodies),
        result_(result),
        first_(e.host_count(),
               std::vector<sim::TimePoint>(bodies.size(), -1)) {}

  void on_delivered(HostId host, util::Seq seq) override {
    const sim::TimePoint now = e_.simulator().now();
    const auto h = static_cast<std::size_t>(host.value);
    if (seq == 0 || seq >= bodies_.size() || seq > broadcast_) {
      result_.fail("host " + std::to_string(host.value) +
                   " delivered seq " + std::to_string(seq) +
                   " that was never broadcast");
      return;
    }
    if (first_[h][seq] >= 0) {
      result_.fail("host " + std::to_string(host.value) + " delivered seq " +
                   std::to_string(seq) + " twice");
      return;
    }
    first_[h][seq] = now;
    const core::Payload* body = e_.host(host).state().body_of(seq);
    if (body == nullptr || body->view() != bodies_[seq]) {
      result_.fail("host " + std::to_string(host.value) + " seq " +
                   std::to_string(seq) + ": body differs from the broadcast");
    }
    digest_.add(static_cast<std::uint64_t>(host.value));
    digest_.add(seq);
    digest_.add(static_cast<std::uint64_t>(now));
  }

  void note_broadcast(util::Seq seq) { broadcast_ = seq; }
  [[nodiscard]] sim::TimePoint first(std::size_t host, util::Seq seq) const {
    return first_[host][seq];
  }
  [[nodiscard]] const Digest& digest() const { return digest_; }

 private:
  harness::Experiment& e_;
  const std::vector<std::string>& bodies_;
  RunResult& result_;
  std::vector<std::vector<sim::TimePoint>> first_;
  util::Seq broadcast_{0};
  Digest digest_;
};

// The one place that reads trace::Metrics: network-level sends per kind
// (a coalesced datagram counts once, as "batch") and the Section-5
// inter-cluster data count.
struct MetricsView {
  std::map<std::string, std::uint64_t> sends_by_kind;
  std::uint64_t intercluster_data{0};
};

MetricsView read_metrics(const trace::Metrics& m) {
  MetricsView v;
  const std::string prefix = "send.";
  for (const auto& [name, value] : m.counters().all()) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string kind = name.substr(prefix.size());
    if (kind.find('.') != std::string::npos) continue;  // intercluster.*
    v.sends_by_kind[kind] = value;
  }
  v.intercluster_data = m.intercluster_data_sends();
  return v;
}

struct Built {
  std::unique_ptr<harness::Experiment> e;
  std::vector<LinkId> trunks;
  double setup_s{0};
};

Built set_up(const DesSpec& spec, Tracer& tracer) {
  const double t0 = wall_seconds();
  Built b;
  topo::Wan wan = [&] {
    auto span = tracer.span("topo.build");
    return build_topology(spec);
  }();
  b.trunks = wan.trunks;
  {
    auto span = tracer.span("harness.build");
    b.e = std::make_unique<harness::Experiment>(std::move(wan.topology),
                                                scenario_options(spec));
  }
  {
    auto span = tracer.span("core.start");
    b.e->start();
  }
  b.setup_s = wall_seconds() - t0;
  return b;
}

// What one scenario produced. The counts are trivially copyable so a
// forked scenario can hand them to its parent as bytes.
struct Counts {
  std::uint64_t messages{0};
  std::uint64_t attempted{0};
  std::uint64_t delivered{0};
  std::uint64_t datagrams{0};
  std::uint64_t frames{0};
  std::uint64_t bytes{0};
  std::uint64_t intercluster_data{0};
  std::uint64_t link_transmits{0};
  std::array<std::uint64_t, kKindCount + 1> sends{};
  std::array<std::uint64_t, kKindCount + 1> upcalls{};
  std::array<std::uint64_t, 5> drops{};
  sim::Duration queue_wait_max{0};
  std::uint64_t duplicates{0};
  std::uint64_t deliveries{0};
  std::uint64_t attaches{0};
  std::uint64_t attach_timeouts{0};
  std::uint64_t gapfills{0};
  std::uint64_t auth_rejects{0};
  std::uint64_t decode_errors{0};
  std::uint64_t events{0};
  std::uint64_t pending_peak{0};
  std::uint64_t intervals_max{0};
  std::uint64_t digest{0};
  std::uint64_t correct{1};
  double stream_wall_s{0};
  double stream_cpu_s{0};
  double stream_sys_s{0};
  double rss_mb{0};

  void merge(const Counts& o) {
    messages += o.messages;
    attempted += o.attempted;
    delivered += o.delivered;
    datagrams += o.datagrams;
    frames += o.frames;
    bytes += o.bytes;
    intercluster_data += o.intercluster_data;
    link_transmits += o.link_transmits;
    for (std::size_t k = 0; k < sends.size(); ++k) {
      sends[k] += o.sends[k];
      upcalls[k] += o.upcalls[k];
    }
    for (std::size_t r = 0; r < drops.size(); ++r) drops[r] += o.drops[r];
    queue_wait_max = std::max(queue_wait_max, o.queue_wait_max);
    duplicates += o.duplicates;
    deliveries += o.deliveries;
    attaches += o.attaches;
    attach_timeouts += o.attach_timeouts;
    gapfills += o.gapfills;
    auth_rejects += o.auth_rejects;
    decode_errors += o.decode_errors;
    events += o.events;
    pending_peak = std::max(pending_peak, o.pending_peak);
    intervals_max = std::max(intervals_max, o.intervals_max);
    rss_mb = std::max(rss_mb, o.rss_mb);
  }
};
static_assert(std::is_trivially_copyable_v<Counts>);

struct Outcome {
  Counts c;
  std::vector<double> latency;  // seconds, per stream (message, host)
  std::map<std::string, std::uint64_t> metrics_sends;
  std::vector<std::string> errors;  // check failures of a forked scenario
};

// One Experiment wired with the benchmark's checks. The warm-up (a single
// broadcast, around which the tree forms, as in the benches' warm_up) is
// the same for every stream, so a run warms up once and then streams in
// forked children that inherit the warmed-up simulation.
class Scenario {
 public:
  Scenario(const DesSpec& spec, const RunOptions& options, Tracer& tracer,
           RunResult& result)
      : spec_(spec),
        tracer_(tracer),
        result_(result),
        built_(set_up(spec, tracer)),
        e_(*built_.e),
        stream_at_(sim::from_seconds(spec.warmup_s)),
        horizon_(sim::from_seconds(
            spec.warmup_s +
            (spec.stream_s + spec.drain_s) * options.horizon_scale)),
        stream_msgs_(static_cast<std::size_t>(
            spec.stream_s * options.horizon_scale * spec.rate)),
        bodies_(stream_msgs_ + 2),
        due_(stream_msgs_ + 2, 0),
        check_(e_, bodies_, result),
        counter_(e_.network(), e_.metrics(), tracer) {
    proto_.add(&e_.events());  // what Experiment installs on every host
    proto_.add(&check_);
    for (HostId h : e_.topology().host_ids()) e_.host(h).set_observer(&proto_);
    e_.network().set_observer(&counter_);
    bodies_[1] = body_for(options.seed, 1, spec.data_bytes);
    send(1);
    // Phase-end markers; the traced run steps the simulator up to them.
    e_.simulator().at(stream_at_, [this] { reached_ = true; });
    e_.simulator().at(horizon_, [this] { reached_ = true; });
  }

  // Restores Experiment's own wiring before the benchmark's observers die.
  ~Scenario() {
    e_.network().set_observer(&e_.metrics());
    for (HostId h : e_.topology().host_ids()) {
      e_.host(h).set_observer(&e_.events());
    }
  }

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  [[nodiscard]] double setup_s() const { return built_.setup_s; }

  void warm_up() { run_phase("sim.warmup", stream_at_); }

  // The open-loop stream, its bodies and arrival phase drawn from
  // `stream_seed`, then the drain to the horizon. Fills the counts' stream
  // timings.
  void stream(std::uint64_t stream_seed) {
    sim::Simulator& sim = e_.simulator();
    const std::vector<double> offsets =
        arrival_offsets(stream_seed, stream_msgs_, spec_.rate);
    for (std::size_t seq = 2; seq < bodies_.size(); ++seq) {
      bodies_[seq] = body_for(stream_seed, seq, spec_.data_bytes);
      due_[seq] = stream_at_ + sim::from_seconds(offsets[seq - 2]);
      sim.at(due_[seq], [this, seq] { send(seq); });
    }
    if (spec_.outage_len_s > 0) {
      const sim::TimePoint from =
          stream_at_ + sim::from_seconds(spec_.outage_at_s);
      e_.faults().outage_window(built_.trunks.front(), from,
                                from + sim::from_seconds(spec_.outage_len_s));
    }
    const double cpu0 = cpu_seconds();
    const double sys0 = sys_cpu_seconds();
    const double wall0 = wall_seconds();
    run_phase("sim.stream", horizon_);
    counts_.stream_wall_s = wall_seconds() - wall0;
    counts_.stream_cpu_s = cpu_seconds() - cpu0;
    counts_.stream_sys_s = sys_cpu_seconds() - sys0;
  }

  // Checks the end state and collects what the scenario produced.
  Outcome outcome() {
    if (tracer_.enabled()) sample_intervals();
    Outcome out;
    Counts& c = counts_;
    const std::size_t messages = bodies_.size() - 1;
    const std::size_t hosts = e_.host_count();
    c.messages = messages;
    c.attempted = static_cast<std::uint64_t>(messages) * (hosts - 1);
    for (std::size_t h = 0; h < hosts; ++h) {
      if (static_cast<int>(h) == e_.source().value) continue;
      for (std::size_t seq = 1; seq <= messages; ++seq) {
        const sim::TimePoint t = check_.first(h, seq);
        if (t < 0) continue;
        ++c.delivered;
        if (seq >= 2) out.latency.push_back(sim::to_seconds(t - due_[seq]));
      }
    }
    for (HostId h : e_.topology().host_ids()) {
      const core::BroadcastHost& host = e_.host(h);
      const auto& hc = host.counters();
      c.duplicates += hc.duplicates_discarded;
      c.deliveries += hc.deliveries;
      c.attaches += hc.attaches_completed;
      c.attach_timeouts += hc.attach_timeouts;
      c.gapfills += hc.gapfills_sent;
      c.auth_rejects += hc.auth_rejects;
      c.decode_errors += hc.decode_errors;
      if (host.info().max_seq() > messages) {
        result_.fail("host " + std::to_string(h.value) + " holds seq " +
                     std::to_string(host.info().max_seq()) +
                     " beyond the last broadcast");
      }
    }
    if (c.auth_rejects != 0 || c.decode_errors != 0) {
      result_.fail("auth_rejects=" + std::to_string(c.auth_rejects) +
                   " decode_errors=" + std::to_string(c.decode_errors));
    }
    c.datagrams = counter_.datagrams;
    c.frames = counter_.frames;
    c.bytes = counter_.bytes;
    c.intercluster_data = counter_.intercluster_data;
    c.link_transmits = counter_.link_transmits;
    c.sends = counter_.sends;
    c.upcalls = counter_.upcalls;
    c.drops = counter_.drops;
    c.queue_wait_max = counter_.queue_wait_max;
    const MetricsView mv = read_metrics(e_.metrics());
    if (!spec_.batched && mv.intercluster_data != counter_.intercluster_data) {
      result_.fail("benchmark and trace::Metrics disagree on inter-cluster "
                   "data sends");
    }
    out.metrics_sends = mv.sends_by_kind;
    c.digest = check_.digest().value();
    c.rss_mb = peak_rss_mb();
    c.correct = result_.correct ? 1 : 0;
    out.c = c;
    return out;
  }

 private:
  void send(std::size_t seq) {
    auto span = tracer_.span("harness.broadcast", seq);
    check_.note_broadcast(seq);  // the source delivers to itself inside
    if (e_.broadcast(bodies_[seq]) != seq) {
      throw std::logic_error("source assigned an unexpected seq");
    }
  }

  void sample_intervals() {
    for (HostId h : e_.topology().host_ids()) {
      counts_.intervals_max = std::max<std::uint64_t>(
          counts_.intervals_max, e_.host(h).info().intervals().size());
    }
  }

  // Untraced: the simulator's own loop. Traced: the benchmark steps it,
  // timing each event and sampling the queue and the INFO sets.
  void run_phase(const char* name, sim::TimePoint end) {
    sim::Simulator& sim = e_.simulator();
    auto span = tracer_.span(name);
    if (tracer_.enabled()) {
      reached_ = false;
      while (!reached_) {
        {
          auto step = tracer_.span("sim.step", 0, false);
          if (!sim.step()) break;
        }
        ++counts_.events;
        counts_.pending_peak =
            std::max<std::uint64_t>(counts_.pending_peak, sim.pending_events());
        if (counts_.events % 4096 == 0) sample_intervals();
      }
    }
    sim.run_until(end);
  }

  const DesSpec& spec_;
  Tracer& tracer_;
  RunResult& result_;
  Built built_;
  harness::Experiment& e_;
  const sim::TimePoint stream_at_;
  const sim::TimePoint horizon_;
  const std::size_t stream_msgs_;
  std::vector<std::string> bodies_;  // by seq; [0] unused
  std::vector<sim::TimePoint> due_;
  DeliveryCheck check_;
  core::ProtocolObserverFanout proto_;
  NetCounter counter_;
  Counts counts_;
  bool reached_{false};
};

// --- forked streams ------------------------------------------------------------

void put(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}
void put_u64(std::string& out, std::uint64_t v) { put(out, &v, sizeof v); }
void put_str(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

std::string encode(const Outcome& o) {
  std::string out;
  put(out, &o.c, sizeof o.c);
  put_u64(out, o.latency.size());
  put(out, o.latency.data(), o.latency.size() * sizeof(double));
  put_u64(out, o.metrics_sends.size());
  for (const auto& [kind, n] : o.metrics_sends) {
    put_str(out, kind);
    put_u64(out, n);
  }
  put_u64(out, o.errors.size());
  for (const std::string& e : o.errors) put_str(out, e);
  return out;
}

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}
  void get(void* data, std::size_t n) {
    if (n > in_.size() - pos_) throw std::runtime_error("truncated outcome");
    std::memcpy(data, in_.data() + pos_, n);
    pos_ += n;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    get(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > in_.size() - pos_) throw std::runtime_error("truncated outcome");
    std::string s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  const std::string& in_;
  std::size_t pos_{0};
};

Outcome decode(const std::string& in) {
  Reader r(in);
  Outcome o;
  r.get(&o.c, sizeof o.c);
  const std::uint64_t n = r.u64();
  if (n > in.size() / sizeof(double)) throw std::runtime_error("bad outcome");
  o.latency.resize(n);
  r.get(o.latency.data(), n * sizeof(double));
  for (std::uint64_t k = r.u64(); k > 0; --k) {
    std::string kind = r.str();
    o.metrics_sends[kind] = r.u64();
  }
  for (std::uint64_t k = r.u64(); k > 0; --k) o.errors.push_back(r.str());
  return o;
}

// Streams `stream_seed` in a forked child, which inherits the warmed-up
// scenario, and returns the child's outcome; the parent's copy stays at the
// end of the warm-up for the next stream.
Outcome stream_in_child(Scenario& scenario, std::uint64_t stream_seed,
                        RunResult& result) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const std::size_t errors_before = result.errors.size();
    std::string bytes;
    int code = 0;
    try {
      scenario.stream(stream_seed);
      Outcome o = scenario.outcome();
      o.errors.assign(result.errors.begin() +
                          static_cast<std::ptrdiff_t>(errors_before),
                      result.errors.end());
      bytes = encode(o);
    } catch (...) {
      code = 1;
    }
    for (std::size_t done = 0; done < bytes.size();) {
      const ssize_t n = ::write(fds[1], bytes.data() + done, bytes.size() - done);
      if (n <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    ::_exit(code);  // no destructors: the parent owns the simulation
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      bytes.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("forked scenario did not finish");
  }
  Outcome o = decode(bytes);
  for (const std::string& e : o.errors) result.fail(e);
  if (o.c.correct == 0) result.fail("forked scenario failed its checks");
  return o;
}

// `p50` and `p99` hold each stream's percentiles; the run reports their
// medians. Pooling the streams' samples instead would let one stream whose
// tree churned (p99 19 s where its siblings read 4-7 s on wan96_control)
// decide the run's tail.
void report(const DesSpec& spec, const Counts& c,
            const std::vector<double>& latency_values,
            const std::vector<double>& p50, const std::vector<double>& p99,
            const std::map<std::string, std::uint64_t>& metrics_sends,
            const Digest& digest, RunResult& result) {
  util::Samples latency;
  for (const double x : latency_values) latency.add(x);
  result.attempted = c.attempted;
  result.failed = c.attempted - c.delivered;
  const auto d = static_cast<double>(std::max<std::uint64_t>(c.delivered, 1));
  result.add_e2e("delivery_p50_s", median(p50), "s", latency.count());
  result.add_e2e("delivery_p99_s", median(p99), "s", latency.count());
  result.add_e2e("datagrams_per_delivery",
                 static_cast<double>(c.datagrams) / d, "count");
  result.add_e2e("bytes_per_delivery", static_cast<double>(c.bytes) / d,
                 "bytes");
  const double undelivered = static_cast<double>(result.failed) /
                             static_cast<double>(c.attempted);
  const double ic_per_msg = static_cast<double>(c.intercluster_data) /
                            static_cast<double>(c.messages);
  result.set_layer("undelivered_frac", undelivered);
  result.set_layer("intercluster_data_per_msg", ic_per_msg);

  std::ostringstream line;
  line << "digest " << digest.hex() << " over " << c.delivered
       << " (host, seq, virtual time) first deliveries";
  result.info.push_back(line.str());
  line.str("");
  line << "sends";
  for (const auto& [kind, n] : metrics_sends) line << " " << kind << "=" << n;
  result.info.push_back(line.str());
  line.str("");
  line << "latency_s pooled over " << p50.size() << " streams:";
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    line << " q" << q << "=" << latency.quantile(q);
  }
  result.info.push_back(line.str());
  line.str("");
  line << "undelivered_frac " << undelivered << " ratio (" << result.failed
       << " of " << c.attempted << " pairs)";
  result.info.push_back(line.str());
  line.str("");
  line << "intercluster_data_per_msg " << ic_per_msg << " count (ideal "
       << spec.clusters - 1 << ")";
  result.info.push_back(line.str());

  for (std::size_t k = 0; k < kKindCount; ++k) {
    result.set_layer(std::string("net.sends.") + kKinds[k],
                     static_cast<double>(c.sends[k]));
    result.set_layer(std::string("core.upcalls.") + kKinds[k],
                     static_cast<double>(c.upcalls[k]));
  }
  const char* reasons[] = {"link_down", "random_loss", "no_route",
                           "ttl_exceeded", "queue_overflow"};
  for (std::size_t r = 0; r < c.drops.size(); ++r) {
    result.set_layer(std::string("net.drops.") + reasons[r],
                     static_cast<double>(c.drops[r]));
  }
  result.set_layer("net.link_transmits",
                   static_cast<double>(c.link_transmits));
  result.set_layer("net.queue_wait_max_s", sim::to_seconds(c.queue_wait_max));
  result.set_layer("transport.datagrams", static_cast<double>(c.datagrams));
  result.set_layer("transport.frames_per_datagram",
                   static_cast<double>(c.frames) /
                       static_cast<double>(
                           std::max<std::uint64_t>(c.datagrams, 1)));
  result.set_layer("core.duplicate_ratio",
                   static_cast<double>(c.duplicates + c.deliveries) /
                       static_cast<double>(
                           std::max<std::uint64_t>(c.deliveries, 1)));
  result.set_layer("core.attaches_completed", static_cast<double>(c.attaches));
  result.set_layer("core.attach_timeouts",
                   static_cast<double>(c.attach_timeouts));
  result.set_layer("core.gapfills_sent", static_cast<double>(c.gapfills));
  result.set_layer("core.auth_rejects", static_cast<double>(c.auth_rejects));
  result.set_layer("core.decode_errors",
                   static_cast<double>(c.decode_errors));
  result.set_layer("sim.events", static_cast<double>(c.events));
  result.set_layer("sim.pending_peak", static_cast<double>(c.pending_peak));
  result.set_layer("util.info_intervals_max",
                   static_cast<double>(c.intervals_max));
}

}  // namespace

RunResult run_des(const RunOptions& options) {
  const DesSpec spec = spec_for(options.workload);
  RunResult result;
  Tracer tracer(options.trace);
  const double horizon_s =
      spec.warmup_s + (spec.stream_s + spec.drain_s) * options.horizon_scale;
  auto stream_seed = [&](int stream) {
    return options.seed * 1000 + static_cast<std::uint64_t>(stream);
  };

  Counts pooled;
  std::vector<double> latency;
  std::map<std::string, std::uint64_t> metrics_sends;
  std::vector<std::uint64_t> digests;
  std::vector<double> setups, speed, cpu_per_delivery, sys_cpu, p50, p99;
  std::ostringstream tails;
  tails << "latency p50/p99 s per stream:";
  // Host time is scaled to the nominal host by the host_time_scale() taken
  // just before each phase: `warm_scale` for the warm-up, `scale` for the
  // stream. The unscaled figures are printed alongside.
  std::vector<double> scales, unscaled_speed, unscaled_cpu;
  auto record = [&](const Outcome& o, double scale, double warm_scale,
                    double warm_wall, double warm_cpu) {
    const double per_delivery =
        1e6 / static_cast<double>(std::max<std::uint64_t>(o.c.delivered, 1));
    speed.push_back(horizon_s / (warm_wall * warm_scale +
                                 o.c.stream_wall_s * scale));
    cpu_per_delivery.push_back(
        (warm_cpu * warm_scale + o.c.stream_cpu_s * scale) * per_delivery);
    scales.push_back(scale);
    unscaled_speed.push_back(horizon_s / (warm_wall + o.c.stream_wall_s));
    unscaled_cpu.push_back((warm_cpu + o.c.stream_cpu_s) * per_delivery);
    sys_cpu.push_back(o.c.stream_sys_s);
  };
  auto pool = [&](Outcome& o) {
    util::Samples s;
    for (const double x : o.latency) s.add(x);
    p50.push_back(s.quantile(0.5));
    p99.push_back(s.quantile(0.99));
    tails << " " << p50.back() << "/" << p99.back();
    pooled.merge(o.c);
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    for (const auto& [kind, n] : o.metrics_sends) metrics_sends[kind] += n;
    digests.push_back(o.c.digest);
  };

  if (options.single) {
    // The traced run, and its untraced baseline: stream 0 in this process.
    double scale = host_time_scale();
    Scenario scenario(spec, options, tracer, result);
    setups.push_back(scenario.setup_s() * scale);
    const double warm_scale = host_time_scale();
    const double wall0 = wall_seconds();
    const double cpu0 = cpu_seconds();
    scenario.warm_up();
    const double warm_wall = wall_seconds() - wall0;
    const double warm_cpu = cpu_seconds() - cpu0;
    scale = host_time_scale();
    scenario.stream(stream_seed(0));
    Outcome o = scenario.outcome();
    record(o, scale, warm_scale, warm_wall, warm_cpu);
    pool(o);
  } else {
    // Rounds of one warm-up and `streams_per_round` forked streams, taking
    // the streams in turn, until every stream has run and then while the
    // time budget lasts; a repeated stream must reproduce its digest.
    const double start = wall_seconds();
    for (int started = 0;;) {
      const double round_start = wall_seconds();
      double scale = host_time_scale();
      Scenario scenario(spec, options, tracer, result);
      setups.push_back(scenario.setup_s() * scale);
      const double warm_scale = host_time_scale();
      const double wall0 = wall_seconds();
      const double cpu0 = cpu_seconds();
      scenario.warm_up();
      const double warm_wall = wall_seconds() - wall0;
      const double warm_cpu = cpu_seconds() - cpu0;
      for (int k = 0; k < spec.streams_per_round; ++k, ++started) {
        const int i = started % spec.streams;
        scale = host_time_scale();
        // Extra set-ups (built, started, discarded), so setup_s is a
        // median of many taken across the whole run.
        for (int j = 0; j < 3; ++j) {
          setups.push_back(set_up(spec, tracer).setup_s * scale);
        }
        Outcome o = stream_in_child(scenario, stream_seed(i), result);
        record(o, scale, warm_scale, warm_wall, warm_cpu);
        if (started < spec.streams) {
          pool(o);
        } else if (o.c.digest != digests[static_cast<std::size_t>(i)]) {
          result.fail("same-seed stream " + std::to_string(i) +
                      " diverged on a repeat");
        }
      }
      const double now = wall_seconds();
      if (started >= spec.streams &&
          now - start + (now - round_start) > options.seconds) {
        break;
      }
    }
  }

  Digest digest;
  for (const std::uint64_t d : digests) digest.add(d);
  report(spec, pooled, latency, p50, p99, metrics_sends, digest, result);
  result.info.push_back(tails.str());
  std::ostringstream scaled;
  scaled << "host time scaled by " << median(scales) << " (median of "
         << scales.size() << " stream scales); unscaled sim_speed "
         << median(unscaled_speed) << ", cpu_us_per_delivery "
         << median(unscaled_cpu);
  result.info.push_back(scaled.str());
  result.add_e2e("setup_s", median(setups), "s",
                 static_cast<std::uint64_t>(setups.size()));
  result.add_e2e("sim_speed", median(speed), "virtual_s/s",
                 static_cast<std::uint64_t>(speed.size()));
  result.add_e2e("cpu_us_per_delivery", median(cpu_per_delivery), "us",
                 static_cast<std::uint64_t>(cpu_per_delivery.size()));
  result.add_e2e("peak_rss_mb", std::max(pooled.rss_mb, peak_rss_mb()), "MB");
  result.set_layer("transport.sys_cpu_s", median(sys_cpu));

  if (tracer.enabled()) {
    const auto totals = tracer.totals();
    auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? Tracer::Totals{} : it->second;
    };
    result.set_layer("topo.build_s", total("topo.build").total_s);
    result.set_layer("harness.build_s", total("harness.build").total_s);
    result.set_layer("core.start_s", total("core.start").total_s);
    result.set_layer("sim.warmup_s", total("sim.warmup").total_s);
    result.set_layer("sim.stream_s", total("sim.stream").total_s);
    const Tracer::Totals step = total("sim.step");
    result.set_layer("sim.step_s", step.total_s);
    result.set_layer("sim.ns_per_event",
                     step.count == 0 ? 0.0
                                     : step.total_s * 1e9 /
                                           static_cast<double>(step.count));
    const Tracer::Totals observer = total("trace.observer");
    result.set_layer("trace.observer_calls",
                     static_cast<double>(observer.count));
    result.set_layer("trace.observer_s", observer.total_s);
    for (const auto& [layer, self] : tracer.self_by_layer()) {
      result.set_layer(layer + ".self_s", self);
    }
    result.set_layer("trace.accounted_cpu_frac",
                     tracer.root_total_s() / std::max(cpu_seconds(), 1e-9));
    if (!options.spans_out.empty() && !tracer.write_jsonl(options.spans_out)) {
      result.fail("cannot write spans to " + options.spans_out);
    }
  }
  return result;
}

}  // namespace perfbench
