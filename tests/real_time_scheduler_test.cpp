// RealTimeScheduler: the wall-clock twin of sim::Simulator. Covers timer
// ordering (earliest deadline, FIFO among ties), cancel, fd watching via
// a pipe, and the phase-jitter contract both schedulers share: one
// uniform draw per call, identical sequence for identical seeds.
#include "util/real_time_scheduler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <functional>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "topo/generators.h"
#include "trace/metric_sampler.h"
#include "trace/metrics.h"
#include "trace/trace_sink.h"
#include "util/metrics_registry.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace rbcast::util {
namespace {

TEST(RealTimeScheduler, FiresTimersInDeadlineThenFifoOrder) {
  RealTimeScheduler rt;
  std::vector<int> order;
  rt.after(milliseconds(20), [&] { order.push_back(3); });
  rt.after(milliseconds(5), [&] { order.push_back(1); });
  rt.after(milliseconds(5), [&] { order.push_back(2); });  // same deadline
  rt.run_for(milliseconds(60));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rt.pending_timers(), 0u);
}

TEST(RealTimeScheduler, CancelPreventsFiring) {
  RealTimeScheduler rt;
  int fired = 0;
  const EventId id = rt.after(milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(rt.cancel(id));
  EXPECT_FALSE(rt.cancel(id));  // second cancel is a no-op
  rt.after(milliseconds(10), [&] { fired += 10; });
  rt.run_for(milliseconds(40));
  EXPECT_EQ(fired, 10);
}

TEST(RealTimeScheduler, ActionsMayRescheduleFromInsideTheLoop) {
  RealTimeScheduler rt;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 3) rt.after(milliseconds(2), tick);
  };
  rt.after(milliseconds(2), tick);
  rt.run_for(milliseconds(100));
  EXPECT_EQ(ticks, 3);
}

TEST(RealTimeScheduler, NowAdvancesWithTheWallClock) {
  RealTimeScheduler rt;
  const TimePoint before = rt.now();
  rt.run_for(milliseconds(10));
  EXPECT_GE(rt.now(), before + milliseconds(10));
}

TEST(RealTimeScheduler, StopEndsTheRunEarly) {
  RealTimeScheduler rt;
  bool late_fired = false;
  rt.after(milliseconds(2), [&] { rt.stop(); });
  rt.after(seconds(30), [&] { late_fired = true; });
  rt.run_for(seconds(60));  // returns in milliseconds, not a minute
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(rt.pending_timers(), 1u);
}

TEST(RealTimeScheduler, WatchedFdCallbackFiresOnReadable) {
  RealTimeScheduler rt;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::string seen;
  rt.watch_fd(fds[0], [&] {
    char buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) seen.append(buf, static_cast<std::size_t>(n));
    rt.stop();
  });
  rt.after(milliseconds(5), [&] { ASSERT_EQ(::write(fds[1], "hi", 2), 2); });
  rt.run_for(seconds(5));
  EXPECT_EQ(seen, "hi");
  rt.unwatch_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- generalized MetricSampler (satellite of the telemetry plane) -----------

TEST(RealTimeScheduler, DrivesMetricSamplerOnTheWallClock) {
  // The sampler takes any util::Scheduler; under RealTimeScheduler it must
  // pace samples on wall time and fold registry counters exactly as it
  // does under the simulator. The sim::Simulator below is only the data
  // source's clock (never run): virtual time stays 0 while samples fire.
  sim::Simulator data_clock;
  topo::ClusteredWanOptions wan;
  wan.clusters = 1;
  wan.hosts_per_cluster = 2;
  topo::Topology topology = topo::make_clustered_wan(wan).topology;
  RngFactory rngs(1);
  net::Network network(data_clock, topology, net::NetConfig{}, rngs);
  trace::Metrics metrics(data_clock, network);

  class CollectingSink final : public trace::TraceSink {
   public:
    void record(const trace::TraceRecord& r) override {
      records.push_back(r);
    }
    std::vector<trace::TraceRecord> records;
  };
  CollectingSink sink;

  RealTimeScheduler rt;
  trace::MetricSampler sampler(rt, metrics, sink, milliseconds(20));
  MetricsRegistry registry;
  std::uint64_t flushes = 0;
  registry.register_counter_fn("transport.coalescer.batches_flushed", "", "",
                               [&] { return flushes; });
  sampler.set_registry(&registry);

  flushes = 3;
  sampler.start();
  rt.run_for(milliseconds(90));
  sampler.stop();

  EXPECT_GE(sampler.samples_taken(), 2u);
  std::vector<trace::TraceRecord> registry_records;
  TimePoint last_at = 0;
  for (const trace::TraceRecord& r : sink.records) {
    EXPECT_EQ(r.category, "metric");
    EXPECT_GE(r.at, last_at);  // stamped on the wall clock, monotone
    last_at = r.at;
    if (r.name == "registry") registry_records.push_back(r);
  }
  EXPECT_GT(last_at, 0);  // wall time, not the untouched virtual clock
  // The counter moved before the first sample and never again: exactly
  // one registry record, carrying the full delta.
  ASSERT_EQ(registry_records.size(), 1u);
  ASSERT_EQ(registry_records[0].fields.size(), 1u);
  EXPECT_EQ(registry_records[0].fields[0].first,
            "transport.coalescer.batches_flushed");
  EXPECT_EQ(std::get<std::uint64_t>(registry_records[0].fields[0].second),
            3u);
}

// --- the shared phase-jitter policy -----------------------------------------

TEST(PhaseJitter, OneDrawPerCallPinnedToUniformInt) {
  // The contract both schedulers rely on: phase_jitter(rng, p) consumes
  // EXACTLY one uniform_int(0, p-1) draw. Any change to the draw count or
  // formula would silently shift every host's timer phases and break
  // same-seed digest equality — this test pins it.
  Rng a(12345);
  Rng b(12345);
  for (const Duration period :
       {milliseconds(1), milliseconds(100), seconds(2), seconds(8)}) {
    EXPECT_EQ(phase_jitter(a, period), b.uniform_int(0, period - 1))
        << "period " << period;
  }
  // After identical draw counts the streams still agree.
  EXPECT_EQ(a.uniform_int(0, 1 << 20), b.uniform_int(0, 1 << 20));
}

TEST(PhaseJitter, BoundsHoldForDegeneratePeriods) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Duration j = phase_jitter(rng, milliseconds(50));
    EXPECT_GE(j, 0);
    EXPECT_LT(j, milliseconds(50));
  }
  // A 1-microsecond period still burns one draw and yields 0.
  Rng c(9);
  Rng d(9);
  EXPECT_EQ(phase_jitter(c, 1), 0);
  (void)d.uniform_int(0, 0);
  EXPECT_EQ(c.uniform_int(0, 100), d.uniform_int(0, 100));
}

TEST(PhaseJitter, IdenticalUnderBothSchedulers) {
  // A PeriodicTask armed with the same seed must land on the same phase
  // offset whichever scheduler drives it: under the simulator the first
  // firing time IS the jitter, and under the wall clock it must stay
  // within [jitter, jitter + scheduling slack).
  const Duration period = milliseconds(40);
  Rng seed_a(77);
  const Duration expected = phase_jitter(seed_a, period);

  sim::Simulator sim;
  std::vector<TimePoint> sim_fires;
  PeriodicTask sim_task(sim, period, [&] { sim_fires.push_back(sim.now()); });
  Rng seed_b(77);
  sim_task.start(phase_jitter(seed_b, period));
  sim.run_until(period * 3);
  ASSERT_GE(sim_fires.size(), 2u);
  EXPECT_EQ(sim_fires[0], expected);
  EXPECT_EQ(sim_fires[1], expected + period);

  // The task ends the run at its second firing; 10 s bounds a broken one.
  RealTimeScheduler rt;
  std::vector<TimePoint> rt_fires;
  PeriodicTask rt_task(rt, period, [&] {
    rt_fires.push_back(rt.now());
    if (rt_fires.size() == 2) rt.stop();
  });
  Rng seed_c(77);
  rt_task.start(phase_jitter(seed_c, period));
  rt.run_for(seconds(10));
  rt_task.stop();
  ASSERT_GE(rt_fires.size(), 2u);
  // Wall-clock firing: never before the deadline, close after it.
  EXPECT_GE(rt_fires[0], expected);
  EXPECT_LT(rt_fires[0], expected + period);
}

}  // namespace
}  // namespace rbcast::util
