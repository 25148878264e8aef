#include "adapt/mape.hpp"
#include "adapt/planner.hpp"

#include <gtest/gtest.h>

#include "net_fixture.hpp"

namespace riot::adapt {
namespace {

using riot::testing::NetFixture;

struct MapeTest : NetFixture {};

TEST_F(MapeTest, TelemetryFlowsIntoKnowledge) {
  MapeLoop loop(network);
  loop.start();
  TelemetrySource source(network, loop.id(), sim::millis(100));
  double reading = 21.5;
  source.add_probe("temp", [&] { return reading; });
  source.start();
  sim.run_until(sim::millis(500));
  const auto obs = loop.knowledge().get("temp");
  ASSERT_TRUE(obs.has_value());
  EXPECT_DOUBLE_EQ(obs->value, 21.5);
  EXPECT_GT(obs->received_at, obs->sampled_at);  // network latency visible
}

TEST_F(MapeTest, KnowledgeAgeReflectsStaleness) {
  MapeLoop loop(network);
  loop.start();
  TelemetrySource source(network, loop.id(), sim::millis(100));
  source.add_probe("x", [] { return 1.0; });
  source.start();
  sim.run_until(sim::millis(250));
  source.crash();  // telemetry stops
  sim.run_until(sim::seconds(10));
  const auto age = loop.knowledge().age("x", sim.now());
  ASSERT_TRUE(age.has_value());
  EXPECT_GT(*age, sim::seconds(9));
}

TEST_F(MapeTest, AnalyzerRaisesViolation) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_analyzer("too-hot", [](const KnowledgeBase& kb)
                        -> std::optional<Violation> {
    if (kb.value_or("temp", 0.0) > 30.0) {
      return Violation{"too-hot", 1.0, "over threshold"};
    }
    return std::nullopt;
  });
  loop.start();
  loop.knowledge().observe("temp", Observation{.value = 35.0});
  sim.run_until(sim::millis(250));
  EXPECT_GT(loop.violations_raised(), 0u);
  ASSERT_FALSE(loop.last_violations().empty());
  EXPECT_EQ(loop.last_violations()[0].requirement, "too-hot");
}

TEST_F(MapeTest, PlannerAndLocalExecution) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_analyzer("svc-down", [](const KnowledgeBase& kb)
                        -> std::optional<Violation> {
    if (kb.value_or("svc.up", 1.0) < 0.5) {
      return Violation{"svc-down", 1.0, ""};
    }
    return std::nullopt;
  });
  auto planner = std::make_unique<RuleBasedPlanner>();
  planner->when("svc-down",
                Action{.kind = ActionKind::kRestartComponent,
                       .component = "svc"});
  loop.set_planner(std::move(planner));
  std::vector<Action> executed;
  loop.set_local_handler([&](const Action& a) { executed.push_back(a); });
  loop.start();
  loop.knowledge().observe("svc.up", Observation{.value = 0.0});
  sim.run_until(sim::millis(250));
  ASSERT_FALSE(executed.empty());
  EXPECT_EQ(executed[0].kind, ActionKind::kRestartComponent);
  EXPECT_EQ(executed[0].component, "svc");
  EXPECT_GT(loop.actions_issued(), 0u);
}

TEST_F(MapeTest, RemoteEffectorReceivesActions) {
  MapeLoop loop(network, sim::millis(100));
  std::vector<Action> executed;
  Effector effector(network, [&](const Action& a) { executed.push_back(a); });
  loop.add_analyzer("always", [](const KnowledgeBase&) {
    return std::optional<Violation>(Violation{"always", 1.0, ""});
  });
  auto planner = std::make_unique<RuleBasedPlanner>();
  planner->when("always", Action{.kind = ActionKind::kFailover,
                                 .component = "remote-svc"});
  loop.set_planner(std::move(planner));
  loop.route_component("remote-svc", effector.id());
  loop.start();
  sim.run_until(sim::millis(350));
  EXPECT_FALSE(executed.empty());
  EXPECT_GT(effector.executed(), 0u);
}

TEST_F(MapeTest, LtlAnalyzerDetectsPersistentViolation) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_ltl_analyzer(
      "fresh-invariant", model::ltl::always(model::ltl::prop("fresh")),
      [](const KnowledgeBase& kb) {
        model::ltl::State state;
        if (kb.value_or("age", 1e9) < 1000.0) state.insert("fresh");
        return state;
      });
  loop.start();
  loop.knowledge().observe("age", Observation{.value = 10.0});
  sim.run_until(sim::millis(350));
  EXPECT_EQ(loop.violations_raised(), 0u);
  loop.knowledge().observe("age", Observation{.value = 5000.0});
  sim.run_until(sim::millis(550));
  EXPECT_GT(loop.violations_raised(), 0u);
}

TEST_F(MapeTest, LtlMonitorResetsAfterViolation) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_ltl_analyzer(
      "inv", model::ltl::always(model::ltl::prop("ok")),
      [](const KnowledgeBase& kb) {
        model::ltl::State state;
        if (kb.value_or("ok", 0.0) > 0.5) state.insert("ok");
        return state;
      });
  loop.start();
  loop.knowledge().observe("ok", Observation{.value = 0.0});
  sim.run_until(sim::millis(550));
  // Violation every iteration because the monitor re-arms.
  EXPECT_GE(loop.violations_raised(), 4u);
}

TEST_F(MapeTest, MtlAnalyzerFiresOnDeadline) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_mtl_analyzer(
      "deadline", model::mtl::always(model::mtl::implies(
                      model::mtl::prop("down"),
                      model::mtl::eventually_within(sim::seconds(1),
                                                    model::mtl::prop("up")))),
      [](const KnowledgeBase& kb) {
        model::mtl::State state;
        state.insert(kb.value_or("svc", 1.0) > 0.5 ? "up" : "down");
        return state;
      });
  loop.start();
  loop.knowledge().observe("svc", Observation{.value = 1.0});
  sim.run_until(sim::millis(500));
  EXPECT_EQ(loop.violations_raised(), 0u);
  loop.knowledge().observe("svc", Observation{.value = 0.0});
  // Within the 1s repair budget: no violation yet.
  sim.run_until(sim::millis(1400));
  EXPECT_EQ(loop.violations_raised(), 0u);
  // Budget exceeded: the deadline obligation expires -> violation.
  sim.run_until(sim::millis(2000));
  EXPECT_GT(loop.violations_raised(), 0u);
}

TEST_F(MapeTest, MtlAnalyzerQuietWhenRepairedInTime) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_mtl_analyzer(
      "deadline", model::mtl::always(model::mtl::implies(
                      model::mtl::prop("down"),
                      model::mtl::eventually_within(sim::seconds(1),
                                                    model::mtl::prop("up")))),
      [](const KnowledgeBase& kb) {
        model::mtl::State state;
        state.insert(kb.value_or("svc", 1.0) > 0.5 ? "up" : "down");
        return state;
      });
  loop.start();
  loop.knowledge().observe("svc", Observation{.value = 0.0});
  sim.run_until(sim::millis(500));
  loop.knowledge().observe("svc", Observation{.value = 1.0});  // repaired
  sim.run_until(sim::seconds(3));
  EXPECT_EQ(loop.violations_raised(), 0u);
}

TEST_F(MapeTest, CrashClearsKnowledge) {
  MapeLoop loop(network);
  loop.start();
  loop.knowledge().observe("k", Observation{.value = 1.0});
  loop.crash();
  loop.recover();
  EXPECT_FALSE(loop.knowledge().get("k").has_value());
}

TEST_F(MapeTest, NoPlannerMeansNoActions) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_analyzer("v", [](const KnowledgeBase&) {
    return std::optional<Violation>(Violation{"v", 1.0, ""});
  });
  loop.start();
  sim.run_until(sim::millis(500));
  EXPECT_GT(loop.violations_raised(), 0u);
  EXPECT_EQ(loop.actions_issued(), 0u);
}

TEST_F(MapeTest, AnalysisCallbackSeesViolations) {
  MapeLoop loop(network, sim::millis(100));
  loop.add_analyzer("v", [](const KnowledgeBase&) {
    return std::optional<Violation>(Violation{"v", 0.7, ""});
  });
  int callbacks = 0;
  loop.on_analysis([&](const std::vector<Violation>& violations) {
    if (!violations.empty()) ++callbacks;
  });
  loop.start();
  sim.run_until(sim::millis(350));
  EXPECT_GE(callbacks, 3);
}

TEST_F(MapeTest, ComponentRecordsTracked) {
  MapeLoop loop(network);
  loop.knowledge().upsert_component(
      ComponentRecord{.name = "proc", .host_node = 4});
  loop.knowledge().mark_component("proc", false, sim::seconds(1));
  const auto record = loop.knowledge().component("proc");
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->believed_healthy);
  EXPECT_FALSE(loop.knowledge().component("missing").has_value());
}

TEST_F(MapeTest, GreedyPlannerPicksBestCandidate) {
  GreedyGoalPlanner planner(
      [](const Violation&, const KnowledgeBase&) {
        return std::vector<Action>{
            Action{.kind = ActionKind::kRestartComponent, .component = "a"},
            Action{.kind = ActionKind::kFailover, .component = "b"},
            Action{.kind = ActionKind::kMigrate, .component = "c"},
        };
      },
      [](const Action& action, const KnowledgeBase&) {
        return action.kind == ActionKind::kFailover ? 0.9 : 0.2;
      });
  const auto actions =
      planner.plan({Violation{"v", 1.0, ""}}, KnowledgeBase{});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ActionKind::kFailover);
  EXPECT_EQ(planner.candidates_evaluated(), 3u);
}

TEST_F(MapeTest, GreedyPlannerRespectsThreshold) {
  GreedyGoalPlanner planner(
      [](const Violation&, const KnowledgeBase&) {
        return std::vector<Action>{
            Action{.kind = ActionKind::kShedLoad, .component = "x"}};
      },
      [](const Action&, const KnowledgeBase&) { return 0.1; },
      /*min_improvement=*/0.5);
  const auto actions =
      planner.plan({Violation{"v", 1.0, ""}}, KnowledgeBase{});
  EXPECT_TRUE(actions.empty());
}

TEST_F(MapeTest, RuleBasedFirstMatchWins) {
  RuleBasedPlanner planner;
  planner.when("v", Action{.kind = ActionKind::kRestartComponent,
                           .component = "first"});
  planner.when("v", Action{.kind = ActionKind::kFailover,
                           .component = "second"});
  const auto actions = planner.plan({Violation{"v", 1.0, ""}},
                                    KnowledgeBase{});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].component, "first");
}

TEST_F(MapeTest, ActionDescribe) {
  const Action a{.kind = ActionKind::kMigrate, .component = "svc",
                 .argument = "edge2"};
  EXPECT_EQ(a.describe(), "migrate(svc -> edge2)");
  const Action b{.kind = ActionKind::kRestartComponent, .component = "svc"};
  EXPECT_EQ(b.describe(), "restart(svc)");
}

}  // namespace
}  // namespace riot::adapt
