// rbcast — reliable broadcast in networks with nonprogrammable servers.
//
// Umbrella header: a full reproduction of Garcia-Molina, Kogan & Lynch,
// "Reliable Broadcast in Networks with Nonprogrammable Servers",
// ICDCS 1988.
//
// Layers (bottom to top):
//   rbcast::util    — sequence sets (INFO sets), rng, stats, ids
//   rbcast::sim     — deterministic discrete-event simulator
//   rbcast::topo    — network topologies (clusters, paper figures)
//   rbcast::net     — the nonprogrammable-server network substrate
//   rbcast::transport — the host wiring seam (SimTransport over net)
//   rbcast::core    — the paper's protocol + the basic baseline
//   rbcast::trace   — metrics, convergence probes, trace export/analysis
//   rbcast::harness — one-call experiment wiring
//
// Quickstart: see examples/quickstart.cpp.
#pragma once

#include "core/attachment.h"
#include "core/basic_protocol.h"
#include "core/broadcast_host.h"
#include "core/config.h"
#include "core/gap_filling.h"
#include "core/gossip_protocol.h"
#include "core/host_protocol.h"
#include "core/host_state.h"
#include "core/messages.h"
#include "core/multi_source.h"
#include "core/ordered_delivery.h"
#include "harness/chaos.h"
#include "harness/experiment.h"
#include "harness/invariant_monitor.h"
#include "harness/workload.h"
#include "model/checker.h"
#include "model/invariants.h"
#include "net/fault_plan.h"
#include "net/link.h"
#include "net/message.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/server.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "topo/generators.h"
#include "topo/topology.h"
#include "trace/admin_server.h"
#include "trace/convergence.h"
#include "trace/dot_export.h"
#include "trace/event_log.h"
#include "trace/exposition.h"
#include "trace/metric_sampler.h"
#include "trace/metrics.h"
#include "trace/net_tap.h"
#include "trace/trace_reader.h"
#include "trace/trace_sink.h"
#include "transport/sim_transport.h"
#include "util/ids.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/seq_set.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer_queue.h"
