#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace riot::sim {
namespace {

struct FaultFixture : ::testing::Test {
  Simulation sim{42};
  TraceLog trace;
  FaultInjector injector{sim, trace};
};

TEST_F(FaultFixture, OneShotFiresAtTime) {
  SimTime fired = kSimTimeZero;
  injector.plan_at(seconds(5), "boom", [&] { fired = sim.now(); });
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(fired, seconds(5));
  EXPECT_EQ(injector.injected_count(), 1u);
}

TEST_F(FaultFixture, WindowAppliesAndReverts) {
  bool active = false;
  injector.plan_window(
      seconds(2), seconds(3), "outage", [&] { active = true; },
      [&] { active = false; });
  injector.arm();
  sim.run_until(seconds(1));
  EXPECT_FALSE(active);
  sim.run_until(seconds(3));
  EXPECT_TRUE(active);
  sim.run_until(seconds(6));
  EXPECT_FALSE(active);
}

TEST_F(FaultFixture, MissingApplyThrows) {
  EXPECT_THROW(injector.plan(PlannedFault{seconds(1), kSimTimeZero,
                                          Disruption{"x", {}, {}}}),
               std::invalid_argument);
}

TEST_F(FaultFixture, PoissonGeneratesWithinRange) {
  int count = 0;
  injector.plan_poisson(seconds(0), seconds(100), seconds(5), kSimTimeZero,
                        [&] {
                          return Disruption{"churn", [&count] { ++count; },
                                            {}};
                        });
  injector.arm();
  sim.run_until(seconds(100));
  // Mean 20 events over the window; allow a generous band.
  EXPECT_GT(count, 5);
  EXPECT_LT(count, 50);
  for (const auto& fault : injector.plan_entries()) {
    EXPECT_GE(fault.start, seconds(0));
    EXPECT_LT(fault.start, seconds(100));
  }
}

TEST_F(FaultFixture, PoissonDeterministicAcrossRuns) {
  auto plan_of = [](std::uint64_t seed) {
    Simulation s(seed);
    TraceLog t;
    FaultInjector inj(s, t);
    inj.plan_poisson(seconds(0), seconds(50), seconds(5), kSimTimeZero,
                     [] { return Disruption{"x", [] {}, {}}; });
    std::vector<SimTime> times;
    for (const auto& e : inj.plan_entries()) times.push_back(e.start);
    return times;
  };
  EXPECT_EQ(plan_of(7), plan_of(7));
  EXPECT_NE(plan_of(7), plan_of(8));
}

TEST_F(FaultFixture, InvalidPoissonIntervalThrows) {
  EXPECT_THROW(injector.plan_poisson(seconds(0), seconds(10), kSimTimeZero,
                                     kSimTimeZero,
                                     [] { return Disruption{}; }),
               std::invalid_argument);
}

TEST_F(FaultFixture, ArmIsIncremental) {
  int fired = 0;
  injector.plan_at(seconds(1), "a", [&] { ++fired; });
  injector.arm();
  injector.arm();  // no double-install
  injector.plan_at(seconds(2), "b", [&] { ++fired; });
  injector.arm();
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 2);
}

TEST_F(FaultFixture, InjectionIsTraced) {
  injector.plan_at(seconds(1), "cloud-outage", [] {});
  injector.arm();
  sim.run_until(seconds(2));
  EXPECT_EQ(trace.count("fault", "inject"), 1u);
  const auto events = trace.find("fault", "inject");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "cloud-outage");
}

TEST_F(FaultFixture, RevertIsTraced) {
  injector.plan_window(seconds(1), seconds(1), "w", [] {}, [] {});
  injector.arm();
  sim.run_until(seconds(3));
  EXPECT_EQ(trace.count("fault", "revert"), 1u);
}

TEST_F(FaultFixture, RevertMayPlanAndArmMoreFaults) {
  // A revert runs from its own plan entry, so the entry (and the closure
  // running from it) must stay in place while the revert grows the plan.
  std::vector<std::string> log;
  injector.plan_window(
      seconds(1), seconds(1), "outer", [&log] { log.push_back("apply"); },
      [this, &log] {
        for (int i = 0; i < 64; ++i) {
          injector.plan_window(seconds(3), seconds(1), "inner", [] {}, [] {});
        }
        injector.arm();
        log.push_back("revert");  // reads a capture after the growth
      });
  injector.arm();
  sim.run_until(seconds(5));
  EXPECT_EQ(log, (std::vector<std::string>{"apply", "revert"}));
  EXPECT_EQ(injector.injected_count(), 65u);
  EXPECT_EQ(trace.count("fault", "revert"), 65u);
}

}  // namespace
}  // namespace riot::sim
