// End-to-end causal-chain tests: one injected root cause, one TraceId,
// correct parent links across subsystem boundaries.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adapt/mape.hpp"
#include "adapt/planner.hpp"
#include "coord/raft.hpp"
#include "core/orchestrator.hpp"
#include "core/system.hpp"
#include "membership/swim.hpp"

namespace riot {
namespace {

// The acceptance scenario: crash the device hosting the Raft leader and an
// orchestrated service, in a fleet running SWIM membership. The single
// system/crash root must causally cover SWIM suspicion and death, the Raft
// re-election, and the orchestrator's re-placement.
TEST(CausalChain, CrashToSwimToRaftToReplacement) {
  core::IoTSystem system(core::SystemConfig{.seed = 7});

  std::vector<device::DeviceId> devices;
  std::vector<membership::SwimMember*> members;
  std::vector<std::unique_ptr<coord::RaftStorage>> storages;
  std::vector<coord::RaftPeer*> peers;
  for (int i = 0; i < 3; ++i) {
    auto edge = device::make_edge("edge" + std::to_string(i));
    edge.location = {i * 50.0, 0};
    devices.push_back(system.add_device(std::move(edge)));
    members.push_back(&system.attach<membership::SwimMember>(devices.back()));
    storages.push_back(std::make_unique<coord::RaftStorage>());
    peers.push_back(
        &system.attach<coord::RaftPeer>(devices.back(), *storages.back()));
  }
  for (auto* m : members) {
    for (auto* peer : members) {
      if (m != peer) m->add_peer(peer->id());
    }
    m->start();
  }
  std::vector<net::NodeId> raft_ids;
  for (auto* p : peers) raft_ids.push_back(p->id());
  for (auto* p : peers) {
    p->set_peers(raft_ids);
    p->start();
  }
  system.run_for(sim::seconds(5));

  std::size_t leader_index = devices.size();
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i]->is_leader()) leader_index = i;
  }
  ASSERT_LT(leader_index, devices.size()) << "no raft leader elected";
  const auto leader_dev = devices[leader_index];

  // Pin the service onto the leader's device, then widen the fleet so the
  // repair has somewhere to go.
  core::ServiceOrchestrator orchestrator(system, sim::millis(500));
  orchestrator.set_fleet({leader_dev});
  core::ServiceSpec spec;
  spec.name = "svc";
  spec.task.required_stack = {.os = "linux", .runtime = "container"};
  spec.task.cpu_load = 10;
  orchestrator.add_service(std::move(spec));
  orchestrator.start();
  system.run_for(sim::seconds(1));
  ASSERT_EQ(orchestrator.host_of("svc"), leader_dev);
  orchestrator.set_fleet(devices);

  // Root cause.
  system.crash_device(leader_dev);
  system.run_for(sim::seconds(20));

  // Effects visible at the protocol level.
  ASSERT_TRUE(orchestrator.host_of("svc").has_value());
  EXPECT_NE(*orchestrator.host_of("svc"), leader_dev);
  bool new_leader = false;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (i != leader_index && peers[i]->is_leader()) new_leader = true;
  }
  EXPECT_TRUE(new_leader);

  // One trace, rooted at the injected crash.
  auto& tracer = system.tracer();
  const auto crash_events = system.trace().find("system", "crash");
  ASSERT_EQ(crash_events.size(), 1u);
  const obs::TraceId trace{crash_events[0].trace_id};
  ASSERT_TRUE(trace.valid());
  const obs::Span* root = tracer.root_of(trace);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->component, "system");
  EXPECT_EQ(root->name, "crash");

  // SWIM: suspect then dead, dead under suspect, both under the crash.
  const obs::Span* suspect = tracer.find_in_trace(trace, "swim", "suspect");
  const obs::Span* dead = tracer.find_in_trace(trace, "swim", "dead");
  ASSERT_NE(suspect, nullptr) << tracer.tree(trace);
  ASSERT_NE(dead, nullptr) << tracer.tree(trace);
  EXPECT_TRUE(tracer.is_ancestor(root->context.span, suspect->context.span));
  EXPECT_TRUE(
      tracer.is_ancestor(suspect->context.span, dead->context.span));

  // Raft: the election reacts to the dead leader's incident; the winner's
  // "leader" span closes it out — all inside the same trace.
  const obs::Span* election = tracer.find_in_trace(trace, "raft", "election");
  ASSERT_NE(election, nullptr) << tracer.tree(trace);
  EXPECT_TRUE(
      tracer.is_ancestor(root->context.span, election->context.span));
  const obs::Span* won = tracer.find_in_trace(trace, "raft", "leader");
  ASSERT_NE(won, nullptr) << tracer.tree(trace);
  EXPECT_TRUE(
      tracer.is_ancestor(election->context.span, won->context.span));

  // Orchestrator: repair opened on the host's incident, successful
  // re-placement nested below it.
  const obs::Span* repair =
      tracer.find_in_trace(trace, "orchestrator", "repair");
  const obs::Span* place = tracer.find_in_trace(trace, "orchestrator", "place");
  ASSERT_NE(repair, nullptr) << tracer.tree(trace);
  ASSERT_NE(place, nullptr) << tracer.tree(trace);
  EXPECT_EQ(place->parent, repair->context.span);
  EXPECT_TRUE(tracer.is_ancestor(root->context.span, place->context.span));
  EXPECT_TRUE(repair->finished);
  EXPECT_TRUE(place->finished);

  // The structured trace log correlates back to the same trace.
  EXPECT_FALSE(system.trace().in_trace(trace.value).empty());

  // Metrics moved with the events.
  EXPECT_GE(system.metrics().counter_value("riot_swim_dead_total"), 1u);
  EXPECT_GE(system.metrics().counter_value("riot_raft_elections_total"), 1u);
  EXPECT_GE(system.metrics().counter_value("riot_orch_migrations_total"), 1u);
}

// A MAPE iteration that finds a violation becomes one trace:
// iteration -> {analyze, plan, execute}, with the ActionCommand delivery
// (and the effector's work) nested under the execute span.
TEST(CausalChain, MapeIterationTracesAnalyzePlanExecute) {
  core::IoTSystem system(core::SystemConfig{.seed = 11});
  auto edge = device::make_edge("edge");
  const auto edge_dev = system.add_device(std::move(edge));
  auto gw = device::make_gateway("gw");
  const auto gw_dev = system.add_device(std::move(gw));

  int restarts = 0;
  auto& effector = system.attach<adapt::Effector>(
      gw_dev, [&restarts](const adapt::Action&) { ++restarts; });
  // Long period: only the explicit iterate_now() below runs in the test
  // window, so the span assertions see exactly one iteration.
  auto& loop = system.attach<adapt::MapeLoop>(edge_dev, sim::seconds(30));
  loop.add_analyzer("svc-down", [](const adapt::KnowledgeBase&)
                        -> std::optional<adapt::Violation> {
    return adapt::Violation{"svc-down", 1.0, "always on"};
  });
  auto planner = std::make_unique<adapt::RuleBasedPlanner>();
  planner->when("svc-down",
                adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                              .component = "svc"});
  loop.set_planner(std::move(planner));
  loop.route_component("svc", effector.id());

  loop.iterate_now();
  system.run_for(sim::seconds(1));
  EXPECT_EQ(restarts, 1);

  auto& tracer = system.tracer();
  const auto analyze_events = system.trace().find("mape", "analyze");
  ASSERT_FALSE(analyze_events.empty());
  const obs::TraceId trace{analyze_events[0].trace_id};
  ASSERT_TRUE(trace.valid());

  const obs::Span* iteration =
      tracer.find_in_trace(trace, "mape", "iteration");
  const obs::Span* analyze = tracer.find_in_trace(trace, "mape", "analyze");
  const obs::Span* plan = tracer.find_in_trace(trace, "mape", "plan");
  const obs::Span* execute = tracer.find_in_trace(trace, "mape", "execute");
  ASSERT_NE(iteration, nullptr);
  ASSERT_NE(analyze, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_TRUE(iteration->root()) << tracer.tree(trace);
  EXPECT_EQ(analyze->parent, iteration->context.span);
  EXPECT_EQ(plan->parent, iteration->context.span);
  EXPECT_EQ(execute->parent, iteration->context.span);

  // The command's network hop rides the execute span.
  const obs::Span* deliver = tracer.find_in_trace(trace, "net", "deliver");
  ASSERT_NE(deliver, nullptr) << tracer.tree(trace);
  EXPECT_TRUE(
      tracer.is_ancestor(execute->context.span, deliver->context.span));

  // A quiet iteration (violation gone) creates no new spans.
  loop.add_analyzer("noop", [](const adapt::KnowledgeBase&)
                        -> std::optional<adapt::Violation> {
    return std::nullopt;
  });
  const auto spans_before = tracer.size();
  core::IoTSystem quiet(core::SystemConfig{.seed = 12});
  const auto quiet_dev = quiet.add_device(device::make_edge("q"));
  auto& quiet_loop = quiet.attach<adapt::MapeLoop>(quiet_dev);
  quiet_loop.iterate_now();
  EXPECT_EQ(quiet.tracer().size(), 0u);
  EXPECT_EQ(tracer.size(), spans_before);
}

}  // namespace
}  // namespace riot
