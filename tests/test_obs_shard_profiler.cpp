// obs::SimProfiler over a ShardedSimulation: one collector per shard,
// merged by component name after the run.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"

namespace riot::obs {
namespace {

TEST(ShardedProfiler, AggregatesEventsByComponentAcrossShards) {
  sim::ShardedSimulation kernel(2, 11);
  kernel.set_lookahead(sim::millis(1));
  // Same component name on both shards: ids are interned per shard, the
  // aggregation must merge them by name.
  const auto hb0 = kernel.shard(0).component_id("heartbeat");
  const auto hb1 = kernel.shard(1).component_id("heartbeat");
  const auto gossip1 = kernel.shard(1).component_id("gossip");

  SimProfiler profiler(kernel);
  profiler.install();
  int ticks0 = 0, ticks1 = 0;  // one per shard: handlers run concurrently
  kernel.shard(0).schedule_every(sim::millis(1), [&ticks0] { ++ticks0; }, hb0);
  kernel.shard(1).schedule_every(sim::millis(2), [&ticks1] { ++ticks1; }, hb1);
  kernel.shard(1).schedule_at(sim::millis(5), [] {}, gossip1);
  kernel.run_until(sim::millis(10));
  EXPECT_EQ(ticks0 + ticks1, 15);

  EXPECT_EQ(profiler.total_events(), kernel.executed_events());
  EXPECT_EQ(profiler.total_events(), 16u);  // 10 + 5 heartbeats + 1 gossip

  MetricsRegistry registry;
  profiler.export_metrics(registry);
  EXPECT_EQ(registry.counter_value("riot_sim_events_total",
                                   {{"component", "heartbeat"}}),
            15u);
  EXPECT_EQ(registry.counter_value("riot_sim_events_total",
                                   {{"component", "gossip"}}),
            1u);
}

TEST(ShardedProfiler, UninstallDetachesCollectors) {
  sim::ShardedSimulation kernel(2, 3);
  SimProfiler profiler(kernel);
  profiler.install();
  EXPECT_NE(kernel.shard(0).profiler(), nullptr);
  profiler.uninstall();
  EXPECT_EQ(kernel.shard(0).profiler(), nullptr);
  EXPECT_EQ(kernel.shard(1).profiler(), nullptr);
  kernel.shard(0).schedule_at(sim::millis(1), [] {});
  kernel.run_until(sim::millis(2));  // no dangling profiler callback
  EXPECT_EQ(profiler.total_events(), 0u);
}

}  // namespace
}  // namespace riot::obs
