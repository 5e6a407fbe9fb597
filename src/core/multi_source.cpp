#include "core/multi_source.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

// The Transport a stream's BroadcastHost attaches to, and the endpoint its
// attach() hands back: sends leave on the node's endpoint as MuxMessages
// tagged with this stream's source; demultiplexed deliveries come back in.
class MultiSourceNode::Stream final : public transport::Transport,
                                      public net::HostEndpoint {
 public:
  Stream(MultiSourceNode& node, HostId source, std::vector<HostId> all_hosts,
         const Config& config, util::Rng rng)
      : node_(node),
        source_(source),
        host_(*this, node.self_, source, std::move(all_hosts), config, rng,
              [&node, source](Seq seq, std::string_view body) {
                if (node.app_deliver_) node.app_deliver_(source, seq, body);
              }) {}

  [[nodiscard]] BroadcastHost& host() { return host_; }

  [[nodiscard]] util::Scheduler& scheduler() override {
    return node_.transport_.scheduler();
  }

  net::HostEndpoint& attach(HostId, net::DeliveryFn deliver) override {
    upcall_ = std::move(deliver);
    return *this;
  }
  void detach(HostId) override { upcall_ = nullptr; }

  [[nodiscard]] HostId self() const override { return node_.self_; }
  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            net::TraceId trace_id) override {
    auto* inner = std::any_cast<ProtocolMessage>(&payload);
    RBCAST_ASSERT_MSG(inner != nullptr,
                      "stream endpoint expects protocol messages");
    // +4 bytes: the stream-source demux field in the packet header.
    node_.endpoint_->send(to,
                          std::any(MuxMessage{source_, std::move(*inner)}),
                          bytes + 4, std::move(kind), trace_id);
  }

  void deliver(const net::Delivery& delivery) {
    if (upcall_) upcall_(delivery);
  }

 private:
  MultiSourceNode& node_;
  HostId source_;
  net::DeliveryFn upcall_;
  // Declared last: it attaches to this stream once upcall_ exists, and
  // detaches before upcall_ dies.
  BroadcastHost host_;
};

MultiSourceNode::MultiSourceNode(transport::Transport& transport, HostId self,
                                 std::vector<HostId> sources,
                                 std::vector<HostId> all_hosts,
                                 const Config& config,
                                 const util::RngFactory& rngs,
                                 AppDeliverFn app_deliver)
    : transport_(transport),
      self_(self),
      app_deliver_(std::move(app_deliver)) {
  RBCAST_CHECK_ARG(!sources.empty(), "need at least one source");
  for (HostId source : sources) {
    RBCAST_CHECK_ARG(std::find(all_hosts.begin(), all_hosts.end(), source) !=
                         all_hosts.end(),
                     "every source must be a participating host");
    RBCAST_CHECK_ARG(!streams_.contains(source), "duplicate source");
    streams_.emplace(
        source,
        std::make_unique<Stream>(
            *this, source, all_hosts, config,
            // Independent jitter stream per (host, stream) pair.
            rngs.stream("msrc.jitter",
                        static_cast<std::int64_t>(self_.value) * 4096 +
                            source.value)));
  }
  endpoint_ = &transport_.attach(
      self_, [this](const net::Delivery& d) { on_delivery(d); });
}

MultiSourceNode::~MultiSourceNode() { transport_.detach(self_); }

void MultiSourceNode::start() {
  for (auto& [source, stream] : streams_) stream->host().start();
}

void MultiSourceNode::on_delivery(const net::Delivery& delivery) {
  const auto* mux = std::any_cast<MuxMessage>(&delivery.payload);
  RBCAST_ASSERT_MSG(mux != nullptr,
                    "MultiSourceNode received a foreign payload");
  auto it = streams_.find(mux->stream_source);
  RBCAST_ASSERT_MSG(it != streams_.end(), "unknown stream source");

  net::Delivery unwrapped = delivery;
  unwrapped.payload = std::any(mux->inner);
  if (unwrapped.bytes >= 4) unwrapped.bytes -= 4;
  it->second->deliver(unwrapped);
}

Seq MultiSourceNode::broadcast(std::string body) {
  RBCAST_ASSERT_MSG(is_source(),
                    "broadcast() on a host that is not a stream source");
  return streams_.at(self())->host().broadcast(std::move(body));
}

BroadcastHost& MultiSourceNode::instance(HostId source) {
  auto it = streams_.find(source);
  RBCAST_ASSERT_MSG(it != streams_.end(), "unknown stream source");
  return it->second->host();
}

std::size_t MultiSourceNode::total_deliveries() const {
  std::size_t n = 0;
  for (const auto& [source, stream] : streams_) {
    n += stream->host().counters().deliveries;
  }
  return n;
}

}  // namespace rbcast::core
