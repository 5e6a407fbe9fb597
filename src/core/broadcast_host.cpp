#include "core/broadcast_host.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

BroadcastHost::BroadcastHost(transport::Transport& transport, HostId self,
                             HostId source, std::vector<HostId> all_hosts,
                             Config config, util::Rng rng,
                             AppDeliverFn app_deliver)
    : scheduler_(transport.scheduler()),
      transport_(transport),
      protocol_(self, source, std::move(all_hosts), std::move(config), rng),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })),
      app_deliver_(std::move(app_deliver)) {
  const Config& c = protocol_.config();
  // Maintenance must run well inside the shortest timeout it enforces.
  const util::Duration maintenance_period = std::max<util::Duration>(
      util::milliseconds(100), std::min(c.parent_timeout, c.child_timeout) / 4);
  auto every = [this](util::Duration period, std::function<void()> action) {
    tasks_.push_back(std::make_unique<util::PeriodicTask>(scheduler_, period,
                                                          std::move(action)));
  };
  tasks_.reserve(6);
  every(c.attach_period, [this] { attachment_round(); });
  every(c.info_period_intra,
        [this] { protocol_.info_round_intra(scheduler_.now(), *this); });
  every(c.info_period_inter,
        [this] { protocol_.info_round_inter(scheduler_.now(), *this); });
  every(c.gapfill_period_neighbor,
        [this] { protocol_.gapfill_round_neighbor(scheduler_.now(), *this); });
  every(c.gapfill_period_far,
        [this] { protocol_.gapfill_round_far(scheduler_.now(), *this); });
  every(maintenance_period,
        [this] { protocol_.maintenance_round(scheduler_.now(), *this); });
}

BroadcastHost::~BroadcastHost() {
  // Detach before members die so an in-flight delivery can never reach a
  // half-destroyed host.
  transport_.detach(self());
  if (metrics_registry_ != nullptr) {
    for (const std::string& name : metrics_names_) {
      metrics_registry_->unregister(name, metrics_labels_);
    }
  }
}

void BroadcastHost::register_metrics(util::MetricsRegistry& registry,
                                     const std::string& labels) {
  RBCAST_CHECK_ARG(metrics_registry_ == nullptr,
                   "register_metrics: host already registered");
  metrics_registry_ = &registry;
  metrics_labels_ = labels;
  struct Field {
    const char* name;
    const char* help;
    std::uint64_t Counters::* member;
  };
  // The host.* metric schema (DESIGN.md §14); one labelled series per
  // host, summed across labels by MetricSampler's registry record.
  static constexpr Field kFields[] = {
      {"host.attach_attempts", "Attachment procedure runs that sent a request",
       &Counters::attach_attempts},
      {"host.attach_timeouts", "Attach handshakes that timed out",
       &Counters::attach_timeouts},
      {"host.attaches_completed", "Attach handshakes accepted",
       &Counters::attaches_completed},
      {"host.cycles_broken", "Parent cycles detected and broken",
       &Counters::cycles_broken},
      {"host.parent_timeouts", "Parents declared dead by silence",
       &Counters::parent_timeouts},
      {"host.new_max_rejected", "New maxima offered by a non-parent, rejected",
       &Counters::new_max_rejected},
      {"host.duplicates_discarded", "Data receipts already held",
       &Counters::duplicates_discarded},
      {"host.data_forwarded", "Data messages forwarded down the tree",
       &Counters::data_forwarded},
      {"host.gapfills_sent", "Gap-fill data messages sent",
       &Counters::gapfills_sent},
      {"host.deliveries", "First receipts handed to the application",
       &Counters::deliveries},
      {"host.decode_errors", "Deliveries whose payload failed wire decoding",
       &Counters::decode_errors},
      {"host.auth_rejects",
       "Data frames dropped for a missing or invalid authentication tag",
       &Counters::auth_rejects},
      {"host.unknown_sender_drops",
       "Deliveries from a sender outside all_hosts, dropped",
       &Counters::unknown_sender_drops},
  };
  for (const Field& f : kFields) {
    registry.register_counter_fn(
        f.name, labels, f.help, [this, m = f.member] { return counters().*m; });
    metrics_names_.emplace_back(f.name);
  }
  auto gauge = [&](const char* name, const char* help, auto read) {
    registry.register_gauge_fn(name, labels, help,
                               [read] { return static_cast<double>(read()); });
    metrics_names_.emplace_back(name);
  };
  gauge("host.info_count", "Sequences held in INFO_i",
        [this] { return info().count(); });
  gauge("host.max_seq", "Sequence watermark (MAX_i)",
        [this] { return info().max_seq(); });
  gauge("host.parent", "Current parent host id (-1 = NIL)",
        [this] { return parent().valid() ? parent().value : -1; });
  gauge("host.cluster_size", "Hosts currently in CLUSTER_i",
        [this] { return state().cluster().size(); });
}

void BroadcastHost::start() {
  // Jitter first activations so hosts do not act in lock-step; each task
  // starts somewhere inside its own first period.
  for (const auto& task : tasks_) {
    task->start(util::phase_jitter(protocol_.rng(), task->period()));
  }
  protocol_.start(scheduler_.now());
}

void BroadcastHost::on_delivery(const net::Delivery& delivery) {
  protocol_.on_delivery(scheduler_.now(), delivery, *this);
}

void BroadcastHost::attachment_round() {
  // A handshake is in flight iff its timeout is armed.
  RBCAST_PARANOID_ASSERT(protocol_.pending_attach().valid() ==
                         attach_timer_.valid());
  protocol_.attachment_round(scheduler_.now(), *this);
}

// --- HostProtocol::Effects ----------------------------------------------

void BroadcastHost::send(HostId to, ProtocolMessage m) {
  const std::size_t bytes = wire_size(m);
  const char* kind = kind_of(m);
  // Data messages (first sends, forwards and gap fills alike) carry the
  // causal trace id of their broadcast; control traffic stays untraced.
  net::TraceId trace_id = 0;
  if (const auto* data = std::get_if<DataMsg>(&m)) {
    trace_id = net::make_trace_id(protocol_.source(), data->seq);
  }
  endpoint_.send(to, std::any(std::move(m)), bytes, kind, trace_id);
}

void BroadcastHost::arm_attach_timeout(HostId candidate) {
  attach_timer_ = scheduler_.after(
      protocol_.config().attach_ack_timeout, [this, candidate] {
        attach_timer_ = util::EventId{};
        protocol_.on_attach_timeout(scheduler_.now(), candidate, *this);
      });
}

void BroadcastHost::cancel_attach_timeout() {
  scheduler_.cancel(attach_timer_);
  attach_timer_ = util::EventId{};
}

}  // namespace rbcast::core
