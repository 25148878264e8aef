// Cross-module integration: compositions the figure benches rely on,
// exercised end-to-end under faults.
#include <gtest/gtest.h>

#include <memory>

#include "adapt/mape.hpp"
#include "adapt/planner.hpp"
#include "coord/raft.hpp"
#include "core/orchestrator.hpp"
#include "core/system.hpp"
#include "data/crdt_store.hpp"
#include "membership/swim.hpp"

namespace riot {
namespace {

// Raft group living on devices under churn injected via the fault plan:
// the replicated log must stay consistent and keep committing.
TEST(Integration, RaftSurvivesDeviceChurn) {
  core::IoTSystem system(core::SystemConfig{.seed = 77});
  std::vector<coord::RaftStorage> storages(5);
  std::vector<coord::RaftPeer*> peers;
  std::vector<device::DeviceId> devices;
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    auto edge = device::make_edge("edge" + std::to_string(i));
    edge.location = {i * 100.0, 0};
    devices.push_back(system.add_device(std::move(edge)));
    auto& peer = system.attach<coord::RaftPeer>(
        devices.back(), storages[static_cast<std::size_t>(i)]);
    peers.push_back(&peer);
    ids.push_back(peer.id());
  }
  for (auto* p : peers) p->set_peers(ids);

  // Keyed by log index: a recovered peer replays its log from index 1
  // (documented state-machine semantics), and every replay must agree
  // with what was applied before.
  std::map<std::uint32_t, std::map<std::uint64_t, std::string>> applied;
  bool replay_consistent = true;
  for (auto* p : peers) {
    p->on_apply([&, node = p->id().value](std::uint64_t index,
                                          const coord::Command& c) {
      auto [it, inserted] = applied[node].emplace(index, c);
      if (!inserted && it->second != c) replay_consistent = false;
    });
  }
  // Churn: one random device crashes every ~20s for 10s, over 3 minutes.
  auto rng = std::make_shared<sim::Rng>(7);
  system.faults().plan_poisson(
      sim::seconds(10), sim::minutes(3), sim::seconds(20), sim::seconds(10),
      [&system, &devices, rng] {
        const auto dev = devices[rng->below(devices.size())];
        return sim::Disruption{
            "churn",
            [&system, dev] { system.crash_device(dev); },
            [&system, dev] { system.recover_device(dev); }};
      });
  system.faults().arm();

  // A client proposes through whoever leads, once a second.
  int proposed = 0;
  system.simulation().schedule_every(sim::seconds(1), [&] {
    for (auto* p : peers) {
      if (p->alive() && p->is_leader()) {
        if (p->propose("cmd" + std::to_string(proposed))) ++proposed;
        break;
      }
    }
  });
  system.run_for(sim::minutes(3) + sim::seconds(30));

  EXPECT_GT(proposed, 100);  // liveness through churn
  EXPECT_TRUE(replay_consistent);
  // Safety: per log index, every peer applied the same command.
  for (auto& [node_a, log_a] : applied) {
    for (auto& [node_b, log_b] : applied) {
      for (const auto& [index, command] : log_a) {
        auto it = log_b.find(index);
        if (it != log_b.end()) {
          ASSERT_EQ(command, it->second)
              << "divergence at index " << index << " between " << node_a
              << " and " << node_b;
        }
      }
    }
  }
}

// SWIM + MAPE + orchestrator: membership detects a dead host, the
// orchestrator re-places the service, all without central coordination.
TEST(Integration, OrchestratorHealsUsingLiveFleetState) {
  core::IoTSystem system(core::SystemConfig{.seed = 13});
  std::vector<device::DeviceId> edges;
  struct Dummy : net::Node {
    explicit Dummy(net::Network& n) : net::Node(n) {}
  };
  for (int i = 0; i < 3; ++i) {
    auto edge = device::make_edge("edge" + std::to_string(i));
    edge.location = {i * 50.0, 0};
    edges.push_back(system.add_device(std::move(edge)));
    system.attach<Dummy>(edges.back());
  }
  core::ServiceOrchestrator orchestrator(system, sim::millis(500));
  int deploys = 0;
  orchestrator.set_deployer(
      [&](const std::string&, device::DeviceId) { ++deploys; },
      [](const std::string&, device::DeviceId) {});
  core::ServiceSpec spec;
  spec.name = "svc";
  spec.task.required_stack = {.os = "linux", .runtime = "container"};
  spec.task.cpu_load = 10;
  orchestrator.add_service(std::move(spec));
  orchestrator.start();
  system.run_for(sim::seconds(1));
  const auto first = orchestrator.host_of("svc");
  ASSERT_TRUE(first.has_value());
  // Kill hosts one after another; the service must keep moving.
  system.crash_device(*first);
  system.run_for(sim::seconds(2));
  const auto second = orchestrator.host_of("svc");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);
  system.crash_device(*second);
  system.run_for(sim::seconds(2));
  const auto third = orchestrator.host_of("svc");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(orchestrator.migrations(), 2u);
  EXPECT_EQ(deploys, 3);
}

// CRDT store replicated across devices + partition + device crash at the
// same time: still converges once both heal.
TEST(Integration, CrdtConvergesThroughCompoundFaults) {
  core::IoTSystem system(core::SystemConfig{.seed = 31});
  std::vector<device::DeviceId> devices;
  std::vector<data::CrdtStore*> stores;
  for (int i = 0; i < 4; ++i) {
    auto edge = device::make_edge("edge" + std::to_string(i));
    edge.location = {i * 100.0, 0};
    devices.push_back(system.add_device(std::move(edge)));
    stores.push_back(&system.attach<data::CrdtStore>(devices.back()));
  }
  for (auto* store : stores) {
    std::vector<net::NodeId> peers;
    for (auto* other : stores) {
      if (other != store) peers.push_back(other->id());
    }
    store->set_replicas(peers);
  }
  // Writes everywhere.
  for (int i = 0; i < 4; ++i) {
    stores[static_cast<std::size_t>(i)]->orset("s").add(
        "pre" + std::to_string(i),
        stores[static_cast<std::size_t>(i)]->replica_id());
  }
  system.run_for(sim::seconds(5));
  // Compound fault: partition 0|123 AND crash device 3.
  system.network().partition({{stores[0]->id()}});
  system.crash_device(devices[3]);
  stores[0]->orset("s").add("during-partition", stores[0]->replica_id());
  stores[1]->orset("s").add("during-crash", stores[1]->replica_id());
  system.run_for(sim::seconds(10));
  system.network().heal_partition();
  system.recover_device(devices[3]);
  system.run_for(sim::seconds(20));
  for (auto* store : stores) {
    EXPECT_EQ(store->orset("s").size(), 6u)
        << "replica " << store->replica_id();
    EXPECT_TRUE(store->orset("s").contains("during-partition"));
    EXPECT_TRUE(store->orset("s").contains("during-crash"));
  }
}

// MAPE loop with a deadline (bounded LTL) analyzer drives recovery: the
// violation fires when the repair deadline passes, not merely when
// staleness is noticed.
TEST(Integration, MtlDeadlineDrivenRecovery) {
  core::IoTSystem system(core::SystemConfig{.seed = 17});
  auto edge = device::make_edge("edge");
  const auto edge_dev = system.add_device(std::move(edge));
  auto worker = device::make_gateway("worker");
  const auto worker_dev = system.add_device(std::move(worker));

  struct Service {
    bool healthy = true;
  };
  auto service = std::make_shared<Service>();
  auto& effector = system.attach<adapt::Effector>(
      worker_dev, [service](const adapt::Action& action) {
        if (action.kind == adapt::ActionKind::kRestartComponent) {
          service->healthy = true;
        }
      });
  auto& loop = system.attach<adapt::MapeLoop>(edge_dev, sim::millis(250));
  auto& telemetry = system.attach<adapt::TelemetrySource>(
      worker_dev, loop.id(), sim::millis(250));
  telemetry.add_probe("svc.up",
                      [service] { return service->healthy ? 1.0 : 0.0; });
  // A deadline requirement: whenever the service is down, it must be up
  // again within 3 s.
  loop.add_ltl_analyzer(
      "repair-deadline",
      model::ltl::always(model::ltl::implies(
          model::ltl::prop("down"),
          model::ltl::eventually_within(sim::seconds(3),
                                        model::ltl::prop("up")))),
      [](const adapt::KnowledgeBase& kb) {
        model::ltl::State state;
        if (kb.value_or("svc.up", 1.0) < 0.5) {
          state.insert("down");
        } else {
          state.insert("up");
        }
        return state;
      });
  auto planner = std::make_unique<adapt::RuleBasedPlanner>();
  planner->when("repair-deadline",
                adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                              .component = "svc"});
  loop.set_planner(std::move(planner));
  loop.route_component("svc", effector.id());

  system.run_for(sim::seconds(5));
  service->healthy = false;  // nothing else will fix it
  system.run_for(sim::seconds(30));
  // The deadline violation fired and the planned restart healed it.
  EXPECT_TRUE(service->healthy);
  EXPECT_GT(loop.violations_raised(), 0u);
  EXPECT_GT(effector.executed(), 0u);
}

// SWIM views distributed over the whole fleet agree with ground truth
// after churn settles (eventual detection accuracy).
TEST(Integration, SwimViewMatchesGroundTruthAfterChurn) {
  core::IoTSystem system(core::SystemConfig{.seed = 3});
  std::vector<device::DeviceId> devices;
  std::vector<membership::SwimMember*> members;
  for (int i = 0; i < 8; ++i) {
    auto gw = device::make_gateway("gw" + std::to_string(i));
    gw.location = {i * 40.0, 0};
    devices.push_back(system.add_device(std::move(gw)));
    members.push_back(
        &system.attach<membership::SwimMember>(devices.back()));
  }
  for (auto* m : members) {
    for (auto* peer : members) {
      if (m != peer) m->add_peer(peer->id());
    }
  }
  system.run_for(sim::seconds(10));
  // Crash 2, recover 1 of them.
  system.crash_device(devices[2]);
  system.crash_device(devices[5]);
  system.run_for(sim::seconds(20));
  system.recover_device(devices[5]);
  system.run_for(sim::seconds(40));
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i == 2) continue;  // the dead one holds no view
    EXPECT_EQ(members[i]->state_of(members[2]->id()),
              membership::MemberState::kDead)
        << "member " << i;
    EXPECT_NE(members[i]->state_of(members[5]->id()),
              membership::MemberState::kDead)
        << "member " << i;
  }
}

}  // namespace
}  // namespace riot
