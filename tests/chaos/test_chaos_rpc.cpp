// RPC resilience under chaos: generated fault schedules and handcrafted
// worst-case storms against RpcChaosStack. Every run enforces the
// no-duplicate-handler-execution and response-integrity invariants while
// faults are active, and breaker-recloses / traffic-flows after they
// revert.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "rpc_chaos_stack.hpp"
#include "sim/chaos.hpp"

namespace riot::chaos_test {
namespace {

using namespace sim::chaos;

std::size_t smoke_iterations() {
  if (const char* env = std::getenv("CHAOS_ITERATIONS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 3;
}

TEST(RpcChaosSmoke, HoldsInvariantsUnderGeneratedSchedules) {
  const ChaosProfile profile = rpc_smoke_profile();
  ChaosExplorer explorer(profile, RpcChaosStack::runner(profile));
  const ExploreResult result =
      explorer.explore(/*base_seed=*/7020, smoke_iterations());
  EXPECT_FALSE(result.failure.has_value()) << result.failure->summary();
  EXPECT_EQ(result.iterations, smoke_iterations());
}

TEST(RpcChaosSmoke, DuplicationStormNeverExecutesTwice) {
  // Handcrafted worst case for idempotency: every message duplicated while
  // two of the four servers flap and a partition splits them away. Retries,
  // duplicates and partition-delayed requests all hit the dedup cache.
  ChaosSchedule schedule;
  schedule.node_count = 4;
  schedule.horizon = sim::seconds(10);
  schedule.actions = {
      {ActionKind::kDuplicate, sim::seconds(1), sim::seconds(8), {}, 1.0},
      {ActionKind::kPartition, sim::seconds(2), sim::seconds(3), {0, 1}, 0.0},
      {ActionKind::kCrash, sim::seconds(3), sim::seconds(2), {2}, 0.0},
      {ActionKind::kLoss, sim::seconds(6), sim::seconds(2), {}, 0.2},
  };

  const ChaosProfile profile = rpc_smoke_profile();
  RpcChaosStack stack(schedule, profile);
  const ChaosRunReport report = stack.run();
  for (const auto& v : report.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.message;
  }
  EXPECT_GT(stack.total_successes(), 0u);
  // The storm must actually have exercised the dedup path.
  EXPECT_GT(stack.metrics().counter_value("riot_rpc_dedup_hits_total", {}),
            0u);
  EXPECT_GT(stack.metrics().counter_value("riot_rpc_retries_total", {}), 0u);
}

TEST(RpcChaosSmoke, BreakerMetricsFlowDuringCrashWindows) {
  ChaosSchedule schedule;
  schedule.node_count = 4;
  schedule.horizon = sim::seconds(10);
  // Long enough crash windows that every cluster's clients trip their
  // breakers, then probe half-open and close after the restart.
  schedule.actions = {
      {ActionKind::kCrash, sim::seconds(1), sim::seconds(4), {0}, 0.0},
      {ActionKind::kCrash, sim::seconds(2), sim::seconds(4), {3}, 0.0},
  };
  const ChaosProfile profile = rpc_smoke_profile();
  RpcChaosStack stack(schedule, profile);
  const ChaosRunReport report = stack.run();
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front().invariant << ": "
      << report.violations.front().message;
  EXPECT_GT(stack.metrics().counter_value("riot_rpc_breaker_rejected_total",
                                          {}),
            0u);
  EXPECT_GT(stack.metrics().counter_value(
                "riot_rpc_breaker_transitions_total", {{"to", "open"}}),
            0u);
  EXPECT_GT(stack.metrics().counter_value(
                "riot_rpc_breaker_transitions_total", {{"to", "closed"}}),
            0u);
}

TEST(RpcChaosSmoke, RunsExportInvariantStats) {
  const ChaosProfile profile = rpc_smoke_profile();
  RpcChaosStack stack(generate_schedule(31, profile), profile);
  stack.run();
  EXPECT_GT(stack.metrics().counter_value(
                "riot_chaos_invariant_checks_total",
                {{"invariant", "rpc_no_duplicate_execution"},
                 {"mode", "always"}}),
            0u);
}

TEST(RpcChaosSmoke, SameScheduleSameTraceHash) {
  const ChaosProfile profile = rpc_smoke_profile();
  const ChaosSchedule schedule = generate_schedule(31, profile);
  const ChaosRunReport a = RpcChaosStack(schedule, profile).run();
  const ChaosRunReport b = RpcChaosStack(schedule, profile).run();
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "same schedule must replay to a byte-identical trace";
}

}  // namespace
}  // namespace riot::chaos_test
