// Satellite: a chaos run is a pure function of its seed. Two generations
// of the same seed are byte-identical; two executions of the same schedule
// against the full stack produce the same trace, event for event; and a
// mid-size soak's outcome is pinned, so a change that claims to keep
// behaviour must reproduce it bit for bit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos_stack.hpp"
#include "sim/chaos.hpp"

namespace riot::chaos_test {
namespace {

using sim::chaos::ChaosProfile;
using sim::chaos::ChaosRunReport;
using sim::chaos::ChaosSchedule;
using sim::chaos::generate_schedule;
using sim::chaos::schedule_to_json;

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

TEST(ChaosDeterminism, SchedulesAreByteIdenticalAcrossGenerations) {
  const ChaosProfile profile = smoke_profile();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string first = schedule_to_json(generate_schedule(seed, profile));
    const std::string second =
        schedule_to_json(generate_schedule(seed, profile));
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(ChaosDeterminism, FullStackRunsAreTraceIdentical) {
  const ChaosProfile profile = smoke_profile();
  const ChaosSchedule schedule = generate_schedule(11, profile);
  ASSERT_FALSE(schedule.actions.empty());

  const ChaosRunReport first = ChaosStack(schedule, profile).run();
  const ChaosRunReport second = ChaosStack(schedule, profile).run();

  EXPECT_EQ(first.trace_hash, second.trace_hash)
      << "same schedule, same stack => identical trace";
  ASSERT_EQ(first.violations.size(), second.violations.size());
  for (std::size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].invariant, second.violations[i].invariant);
    EXPECT_EQ(first.violations[i].message, second.violations[i].message);
    EXPECT_EQ(first.violations[i].at, second.violations[i].at);
  }
}

TEST(ChaosDeterminism, DistinctSeedsProduceDistinctTraces) {
  const ChaosProfile profile = smoke_profile();
  const ChaosRunReport a =
      ChaosStack(generate_schedule(11, profile), profile).run();
  const ChaosRunReport b =
      ChaosStack(generate_schedule(12, profile), profile).run();
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(ChaosDeterminism, SerializedScheduleReplaysIdentically) {
  // The JSON repro path: emit -> parse -> run must equal the direct run.
  const ChaosProfile profile = smoke_profile();
  const ChaosSchedule schedule = generate_schedule(17, profile);
  const auto parsed =
      sim::chaos::schedule_from_json(schedule_to_json(schedule));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(*parsed, schedule);
  const ChaosRunReport direct = ChaosStack(schedule, profile).run();
  const ChaosRunReport via_json = ChaosStack(*parsed, profile).run();
  EXPECT_EQ(direct.trace_hash, via_json.trace_hash);
}

TEST(ChaosDeterminism, MidSizeSoakOutcomeIsPinned) {
  // The soak's schedule envelope and stack at 100 logical nodes in 20
  // cells (501 endpoints; above 50 nodes, as in the soak, SWIM rides 16
  // piggyback slots). The trace hash covers every traced protocol
  // transition, the fabric totals every message; all four were recorded
  // before the gossip merge, the SWIM piggyback counting sort and the
  // 4-ary event heap, none of which may move them.
  ChaosProfile profile = soak_profile();
  profile.node_count = 100;
  const ChaosSchedule schedule = generate_schedule(7777, profile);
  ChaosStack stack(schedule, profile, 20);
  const ChaosRunReport report = stack.run();
  for (const auto& v : report.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.message;
  }
  EXPECT_EQ(hex(report.trace_hash), "9cb17e4ea10fc6fe");
  EXPECT_EQ(hex(stack.metrics().counter_value("riot_net_sent_total")),
            "000000000003a11f");
  EXPECT_EQ(hex(stack.metrics().counter_value("riot_net_delivered_total")),
            "0000000000037cc6");
  EXPECT_EQ(hex(stack.metrics().counter_value("riot_net_bytes_total")),
            "00000000024ad14d");
}

}  // namespace
}  // namespace riot::chaos_test
