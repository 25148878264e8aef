// Integration tests over the maturity-level scenarios — the executable
// form of the paper's Tables 1 and 2.
#include "core/maturity.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "sim/chaos.hpp"

namespace riot::core {
namespace {

struct Run {
  std::unique_ptr<IoTSystem> system;
  std::unique_ptr<MaturityScenario> scenario;
};

Run make_run(MaturityLevel level, std::uint64_t seed = 42,
             MaturityConfig cfg = {}) {
  Run r;
  r.system = std::make_unique<IoTSystem>(SystemConfig{.seed = seed});
  r.scenario = std::make_unique<MaturityScenario>(*r.system, level, cfg);
  r.scenario->install();
  return r;
}

// --- Fault-free operation ------------------------------------------------------

class FaultFreeLevels
    : public ::testing::TestWithParam<MaturityLevel> {};

TEST_P(FaultFreeLevels, ServiceRequirementsHoldWithoutFaults) {
  auto run = make_run(GetParam());
  run.system->run_for(sim::minutes(2));
  const auto report = run.scenario->report(sim::seconds(10), sim::minutes(2));
  // Freshness and actuation hold at every level when nothing fails.
  for (const auto& [name, sat] : report.per_requirement) {
    if (name.rfind("privacy", 0) == 0) continue;  // ML2 leaks by design
    EXPECT_GT(sat, 0.95) << to_string(GetParam()) << " " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, FaultFreeLevels,
                         ::testing::Values(MaturityLevel::kSilo,
                                           MaturityLevel::kCloud,
                                           MaturityLevel::kEdge,
                                           MaturityLevel::kResilient));

// --- Privacy governance (the data-flows disruption vector) ---------------------

TEST(Maturity, Ml2LeaksPersonalDataMl4Blocks) {
  auto ml2 = make_run(MaturityLevel::kCloud);
  ml2.system->run_for(sim::minutes(1));
  EXPECT_GT(ml2.scenario->privacy_leaks(), 0u);
  EXPECT_EQ(ml2.scenario->privacy_blocked(), 0u);
  EXPECT_GT(ml2.scenario->archived_items(), 0u);  // raw data at the cloud

  auto ml4 = make_run(MaturityLevel::kResilient);
  ml4.system->run_for(sim::minutes(1));
  EXPECT_EQ(ml4.scenario->privacy_leaks(), 0u);
  EXPECT_GT(ml4.scenario->privacy_blocked(), 0u);
  // GDPR-site data is blocked at the relays; only the CCPA site (whose
  // regime permits personal egress) reaches the archive — governed flows,
  // not a funnel.
  EXPECT_LT(ml4.scenario->archived_items(),
            ml2.scenario->archived_items());
}

TEST(Maturity, Ml1SiloHasNoFlowsToLeak) {
  auto run = make_run(MaturityLevel::kSilo);
  run.system->run_for(sim::minutes(1));
  EXPECT_EQ(run.scenario->privacy_leaks(), 0u);
  EXPECT_EQ(run.scenario->archived_items(), 0u);
}

// --- Cloud outage (the centralization disruption) -------------------------------

TEST(Maturity, CloudOutageKillsMl2ServiceNotMl4) {
  auto ml2 = make_run(MaturityLevel::kCloud, 7);
  ml2.scenario->schedule_cloud_outage(sim::seconds(60), sim::seconds(60));
  ml2.system->run_for(sim::minutes(3));
  // During the outage, freshness collapses at ML2.
  const auto during_ml2 =
      ml2.scenario->report(sim::seconds(70), sim::seconds(115));
  double fresh_sat = 1.0;
  for (const auto& [name, sat] : during_ml2.per_requirement) {
    if (name.rfind("freshness", 0) == 0) fresh_sat = std::min(fresh_sat, sat);
  }
  EXPECT_LT(fresh_sat, 0.2);

  auto ml4 = make_run(MaturityLevel::kResilient, 7);
  ml4.scenario->schedule_cloud_outage(sim::seconds(60), sim::seconds(60));
  ml4.system->run_for(sim::minutes(3));
  const auto during_ml4 =
      ml4.scenario->report(sim::seconds(70), sim::seconds(115));
  for (const auto& [name, sat] : during_ml4.per_requirement) {
    EXPECT_GT(sat, 0.95) << name;
  }
}

TEST(Maturity, Ml1UnaffectedByCloudOutage) {
  auto run = make_run(MaturityLevel::kSilo);
  run.scenario->schedule_cloud_outage(sim::seconds(30), sim::seconds(60));
  run.system->run_for(sim::minutes(2));
  const auto report = run.scenario->report(sim::seconds(35),
                                           sim::seconds(85));
  EXPECT_GT(report.resilience_index, 0.99);
}

// --- Processing-host crash (internal fault) --------------------------------------

TEST(Maturity, Ml4FailsOverWithinSeconds) {
  auto run = make_run(MaturityLevel::kResilient);
  run.scenario->schedule_processing_crash(0, sim::seconds(60));
  run.system->run_for(sim::minutes(3));
  const auto recovery =
      run.system->resilience().recovery_time_after(sim::seconds(60));
  ASSERT_TRUE(recovery.has_value());
  EXPECT_LT(sim::to_seconds(*recovery), 15.0);
  // Failover happened: the standby is now active.
  EXPECT_TRUE(run.scenario->sites()[0].failover_done);
  EXPECT_EQ(run.scenario->sites()[0].active,
            run.scenario->sites()[0].standby);
  EXPECT_GT(run.scenario->autonomous_actions(), 0u);
  EXPECT_EQ(run.scenario->manual_repairs(), 0u);
}

TEST(Maturity, Ml1NeedsManualRepair) {
  auto run = make_run(MaturityLevel::kSilo, 42,
                      {.manual_repair_delay = sim::seconds(60)});
  run.scenario->schedule_processing_crash(0, sim::seconds(30));
  run.system->run_for(sim::minutes(3));
  const auto recovery =
      run.system->resilience().recovery_time_after(sim::seconds(30));
  ASSERT_TRUE(recovery.has_value());
  // Nothing recovers before the technician arrives.
  EXPECT_GT(sim::to_seconds(*recovery), 55.0);
  EXPECT_EQ(run.scenario->manual_repairs(), 1u);
  EXPECT_EQ(run.scenario->autonomous_actions(), 0u);
}

TEST(Maturity, Ml2CloudMapeRestartsProcessor) {
  // ML2's privacy requirement is permanently violated, so R(t) never hits
  // 1.0; judge recovery by the freshness requirement alone.
  auto run = make_run(MaturityLevel::kCloud);
  run.scenario->schedule_processing_crash(0, sim::seconds(60));
  run.system->run_for(sim::minutes(3));
  const auto after = run.scenario->report(sim::seconds(90), sim::minutes(3));
  for (const auto& [name, sat] : after.per_requirement) {
    if (name == "freshness@readings/0") {
      EXPECT_GT(sat, 0.9);
    }
  }
  // The crash is detected within one MAPE period (~0.5 s) and the restart
  // lands after the 5 s restart delay: freshness is violated in between.
  const auto during = run.scenario->report(sim::seconds(61),
                                           sim::seconds(64));
  for (const auto& [name, sat] : during.per_requirement) {
    if (name == "freshness@readings/0") {
      EXPECT_LT(sat, 0.3);
    }
  }
  EXPECT_GT(run.scenario->autonomous_actions(), 0u);
}

TEST(Maturity, Ml3SupervisorRestartsEdge) {
  auto run = make_run(MaturityLevel::kEdge);
  run.scenario->schedule_processing_crash(0, sim::seconds(60));
  run.system->run_for(sim::minutes(3));
  const auto recovery =
      run.system->resilience().recovery_time_after(sim::seconds(60));
  ASSERT_TRUE(recovery.has_value());
  EXPECT_LT(sim::to_seconds(*recovery), 30.0);
  // The edge device is back.
  EXPECT_TRUE(run.system->device_alive(run.scenario->sites()[0].edge));
}

// --- The headline comparison -----------------------------------------------------

TEST(Maturity, ResilienceOrderingUnderFullDisruptionSuite) {
  auto resilience_of = [](MaturityLevel level) {
    auto run = make_run(level, 11);
    run.scenario->schedule_cloud_outage(sim::seconds(60), sim::seconds(45));
    run.scenario->schedule_processing_crash(0, sim::seconds(150));
    run.scenario->schedule_wan_partition(sim::seconds(210),
                                         sim::seconds(30));
    run.system->run_for(sim::minutes(5));
    return run.scenario->report(sim::seconds(10), sim::minutes(5))
        .resilience_index;
  };
  const double ml2 = resilience_of(MaturityLevel::kCloud);
  const double ml3 = resilience_of(MaturityLevel::kEdge);
  const double ml4 = resilience_of(MaturityLevel::kResilient);
  EXPECT_GT(ml3, ml2);
  EXPECT_GT(ml4, ml3);
  EXPECT_GT(ml4, 0.95);
}

TEST(Maturity, Ml4RunsFormalMonitors) {
  auto ml4 = make_run(MaturityLevel::kResilient);
  EXPECT_GT(ml4.scenario->monitored_requirements(), 0u);
  auto ml2 = make_run(MaturityLevel::kCloud);
  EXPECT_EQ(ml2.scenario->monitored_requirements(), 0u);
}

TEST(Maturity, SensorChurnToleratedByAllLevels) {
  for (const auto level :
       {MaturityLevel::kSilo, MaturityLevel::kResilient}) {
    auto run = make_run(level, 23);
    run.scenario->schedule_sensor_churn(sim::seconds(10), sim::minutes(2),
                                        sim::seconds(15), sim::seconds(10));
    run.system->run_for(sim::minutes(2));
    const auto report = run.scenario->report(sim::seconds(10),
                                             sim::minutes(2));
    // Redundant sensors keep freshness up through churn.
    double fresh = 1.0;
    for (const auto& [name, sat] : report.per_requirement) {
      if (name.rfind("freshness", 0) == 0) fresh = std::min(fresh, sat);
    }
    EXPECT_GT(fresh, 0.9) << to_string(level);
  }
}

TEST(Maturity, DeterministicGivenSeed) {
  auto once = [](std::uint64_t seed) {
    auto run = make_run(MaturityLevel::kResilient, seed);
    run.scenario->schedule_processing_crash(0, sim::seconds(30));
    run.system->run_for(sim::minutes(2));
    return run.scenario->report(sim::kSimTimeZero, sim::minutes(2))
        .resilience_index;
  };
  EXPECT_DOUBLE_EQ(once(99), once(99));
}

// --- The maturity grid's outcome, pinned -----------------------------------------

// bench_table_maturity's run at one level (seed 42, its four disruptions,
// 5 sim-min), as `name=hex` fields: the trace hash, the fabric totals, the
// executed events, the table's integer columns and the bit patterns of
// resilience, availability and MTTR.
std::string table_outcome(MaturityLevel level) {
  auto run = make_run(level);
  auto& scenario = *run.scenario;
  scenario.schedule_cloud_outage(sim::seconds(60), sim::seconds(45));
  scenario.schedule_processing_crash(0, sim::seconds(150));
  scenario.schedule_wan_partition(sim::seconds(210), sim::seconds(30));
  scenario.schedule_sensor_churn(sim::seconds(10), sim::minutes(5),
                                 sim::seconds(30), sim::seconds(10));
  run.system->run_for(sim::minutes(5));
  const auto report = scenario.report(sim::seconds(10), sim::minutes(5));
  const auto& metrics = run.system->metrics();
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"trace", sim::chaos::trace_hash(run.system->trace())},
      {"sent", metrics.counter_value("riot_net_sent_total")},
      {"delivered", metrics.counter_value("riot_net_delivered_total")},
      {"bytes", metrics.counter_value("riot_net_bytes_total")},
      {"events", run.system->simulation().executed_events()},
      {"episodes", report.violation_episodes},
      {"auto", scenario.autonomous_actions()},
      {"manual", scenario.manual_repairs()},
      {"leaks", scenario.privacy_leaks()},
      {"blocked", scenario.privacy_blocked()},
      {"archived", scenario.archived_items()},
      {"monitored", scenario.monitored_requirements()},
      {"resilience", std::bit_cast<std::uint64_t>(report.resilience_index)},
      {"avail", std::bit_cast<std::uint64_t>(report.availability)},
      {"mttr", static_cast<std::uint64_t>(report.mean_time_to_repair.count())},
  };
  std::string out;
  for (const auto& [name, value] : fields) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%s=%" PRIx64, out.empty() ? "" : " ",
                  name, value);
    out += buf;
  }
  return out;
}

TEST(Maturity, TableRunOutcomeIsPinned) {
  // Recorded before the four levels were rewritten onto shared wiring,
  // which may not move any of them.
  const std::pair<MaturityLevel, const char*> pinned[] = {
      {MaturityLevel::kSilo,
       "trace=70760b2a1fee86c4 sent=28bd delivered=240f bytes=f6004 "
       "events=443f episodes=1 auto=0 manual=1 leaks=0 blocked=0 "
       "archived=0 monitored=0 resilience=3feabdb7c3abdbcd "
       "avail=3fe2be1214ba1a05 mttr=1bff756280"},
      {MaturityLevel::kCloud,
       "trace=4fccdf5dcc2bdd72 sent=4bad delivered=44f2 bytes=1e02c4 "
       "events=6a4b episodes=1 auto=7b manual=0 leaks=10ec blocked=0 "
       "archived=10ea monitored=0 resilience=3fe49569171072e0 avail=0 "
       "mttr=438558d400"},
      {MaturityLevel::kEdge,
       "trace=150d94fb8f0680b1 sent=45b5 delivered=44b4 bytes=1ad0a3 "
       "events=6b5b episodes=1 auto=81 manual=0 leaks=0 blocked=0 "
       "archived=0 monitored=2 resilience=3fefae268b175431 "
       "avail=3fef17270746c7c6 mttr=1ebbd0280"},
      {MaturityLevel::kResilient,
       "trace=605489c93bb52392 sent=9658 delivered=922a bytes=3f1489 "
       "events=c018 episodes=1 auto=4 manual=0 leaks=0 blocked=ae0 "
       "archived=893 monitored=4 resilience=3fefdcb8566f92a0 "
       "avail=3fef880c5914f28d mttr=fd51da80"},
  };
  for (const auto& [level, expected] : pinned) {
    EXPECT_EQ(table_outcome(level), expected) << to_string(level);
  }
}

}  // namespace
}  // namespace riot::core
