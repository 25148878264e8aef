#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/chaos_hooks.hpp"
#include "net_fixture.hpp"

namespace riot::net {
namespace {

using riot::testing::NetFixture;
using riot::testing::Sink;

struct Ping {
  int value = 0;
};

struct NetworkTest : NetFixture {
  NodeId make_sink(std::vector<Message>* box) {
    return network.register_endpoint(
        [box](const Message& m) { box->push_back(m); });
  }
};

TEST_F(NetworkTest, DeliversWithLinkLatency) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(7), sim::kSimTimeZero, 0.0};
  });
  network.send(a, b, Ping{1});
  sim.run_until(sim::millis(6));
  EXPECT_TRUE(inbox.empty());
  sim.run_until(sim::millis(8));
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, a);
  EXPECT_EQ(inbox[0].as<Ping>().value, 1);
}

TEST_F(NetworkTest, JitterStaysWithinBound) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(10), sim::millis(5), 0.0};
  });
  for (int i = 0; i < 50; ++i) network.send(a, b, Ping{i});
  sim.run_until(sim::millis(9));
  EXPECT_TRUE(inbox.empty());
  sim.run_until(sim::millis(15));
  EXPECT_EQ(inbox.size(), 50u);
}

TEST_F(NetworkTest, LossDropsApproximately) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(1), sim::kSimTimeZero, 0.3};
  });
  for (int i = 0; i < 2000; ++i) network.send(a, b, Ping{i});
  sim.run_until(sim::seconds(1));
  EXPECT_NEAR(static_cast<double>(inbox.size()), 1400.0, 100.0);
  EXPECT_EQ(network.messages_dropped() + network.messages_delivered(),
            network.messages_sent());
}

TEST_F(NetworkTest, AmbientLossAddsToLinkLoss) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_ambient_loss(1.0);
  network.send(a, b, Ping{});
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(inbox.empty());
  network.set_ambient_loss(0.0);
  network.send(a, b, Ping{});
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(inbox.size(), 1u);
}

TEST_F(NetworkTest, DeadSenderSendsNothing) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_node_up(a, false);
  EXPECT_EQ(network.send(a, b, Ping{}), 0u);
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(inbox.empty());
}

TEST_F(NetworkTest, DeadTargetDropsAtDelivery) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.send(a, b, Ping{});
  network.set_node_up(b, false);  // dies while in flight
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(metrics.counter_value("riot_net_dropped_total",
                                  {{"reason", "dead_target"}}),
            1u);
}

TEST_F(NetworkTest, PartitionBlocksAcrossGroups) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  const NodeId c = make_sink(&inbox);
  inbox.clear();
  network.partition({{a}, {b, c}});
  EXPECT_FALSE(network.reachable(a, b));
  EXPECT_TRUE(network.reachable(b, c));
  network.send(a, b, Ping{});
  network.send(b, c, Ping{});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(inbox.size(), 1u);
}

TEST_F(NetworkTest, HealRestoresDelivery) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.partition({{a}, {b}});
  network.send(a, b, Ping{});
  network.heal_partition();
  network.send(a, b, Ping{});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(inbox.size(), 1u);
}

TEST_F(NetworkTest, IsolateAndUnisolate) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  const NodeId c = make_sink(&inbox);
  inbox.clear();
  network.isolate(b);
  EXPECT_FALSE(network.reachable(a, b));
  EXPECT_TRUE(network.reachable(a, c));
  network.unisolate(b);
  EXPECT_TRUE(network.reachable(a, b));
}

TEST_F(NetworkTest, PartitionAfterIsolateKeepsNodeIsolated) {
  // Regression: partition() used to rewrite every endpoint's group while
  // leaving isolated_ populated — the isolated node silently rejoined a
  // partition group, and a later unisolate restored a stale pre-partition
  // group. Chaos schedules interleave isolate and partition freely, so
  // the two must compose.
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  const NodeId c = make_sink(&inbox);
  inbox.clear();
  network.isolate(b);
  network.partition({{a}, {b, c}});
  EXPECT_FALSE(network.reachable(b, c)) << "isolation survives repartition";
  EXPECT_FALSE(network.reachable(a, b));
  EXPECT_FALSE(network.reachable(a, c)) << "explicit groups still apply";
  network.unisolate(b);
  EXPECT_TRUE(network.reachable(b, c))
      << "unisolate rejoins the CURRENT partition group, not a stale one";
  EXPECT_FALSE(network.reachable(a, b))
      << "rejoining b stays inside its partition group";
}

TEST_F(NetworkTest, RepartitionMovesIsolatedNodesSavedGroup) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  const NodeId c = make_sink(&inbox);
  inbox.clear();
  network.partition({{a, b}, {c}});
  network.isolate(b);  // saved group: 1 (with a)
  network.partition({{a}, {b, c}});  // b's home moves to group 2 (with c)
  network.unisolate(b);
  EXPECT_TRUE(network.reachable(b, c));
  EXPECT_FALSE(network.reachable(a, b));
}

TEST_F(NetworkTest, HealPartitionLiftsIsolationToo) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.isolate(b);
  network.partition({{a}, {b}});
  network.heal_partition();
  EXPECT_TRUE(network.reachable(a, b));
  network.unisolate(b);  // no-op: heal cleared the isolation record
  EXPECT_TRUE(network.reachable(a, b));
}

TEST_F(NetworkTest, DoubleIsolateRestoresTrueHomeGroup) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.isolate(b);
  network.isolate(b);  // idempotent: keeps the original saved group
  network.unisolate(b);
  EXPECT_TRUE(network.reachable(a, b));
}

TEST_F(NetworkTest, UnlistedNodesKeepTalkingDuringPartition) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  const NodeId isolated = make_sink(&inbox);
  inbox.clear();
  network.partition({{isolated}});
  EXPECT_TRUE(network.reachable(a, b));
  EXPECT_FALSE(network.reachable(a, isolated));
}

TEST_F(NetworkTest, LinkOverrideTakesPrecedence) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(1), sim::kSimTimeZero, 0.0};
  });
  network.set_link(a, b, LinkQuality{sim::millis(50), sim::kSimTimeZero, 0.0});
  EXPECT_EQ(network.link_quality(a, b).base_latency, sim::millis(50));
  network.clear_link_override(a, b);
  EXPECT_EQ(network.link_quality(a, b).base_latency, sim::millis(1));
}

TEST_F(NetworkTest, ClassMatrixResolvesWithoutModelCall) {
  std::vector<Message> inbox;
  const NodeId device = make_sink(&inbox);
  const NodeId edge = make_sink(&inbox);
  inbox.clear();
  // A model that must never be consulted once the class path is wired.
  bool model_called = false;
  network.set_link_model([&model_called](NodeId, NodeId) {
    model_called = true;
    return LinkQuality{};
  });
  network.set_endpoint_class(device, 0);
  network.set_endpoint_class(edge, 1);
  network.set_class_link(0, 1, LinkQuality{sim::millis(3), sim::kSimTimeZero, 0.0});
  network.set_class_link(1, 0, LinkQuality{sim::millis(9), sim::kSimTimeZero, 0.0});
  EXPECT_EQ(network.link_quality(device, edge).base_latency, sim::millis(3));
  EXPECT_EQ(network.link_quality(edge, device).base_latency, sim::millis(9));
  EXPECT_FALSE(model_called);
  // Unpopulated cells fall through to the model.
  network.set_endpoint_class(edge, 2);
  (void)network.link_quality(device, edge);
  EXPECT_TRUE(model_called);
}

TEST_F(NetworkTest, PairOverrideBeatsClassMatrix) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_class_link(0, 0, LinkQuality{sim::millis(2), sim::kSimTimeZero, 0.0});
  network.set_link(a, b, LinkQuality{sim::millis(40), sim::kSimTimeZero, 0.0});
  EXPECT_EQ(network.link_quality(a, b).base_latency, sim::millis(40));
  EXPECT_EQ(network.link_quality(b, a).base_latency, sim::millis(2));
  network.clear_link_override(a, b);
  EXPECT_EQ(network.link_quality(a, b).base_latency, sim::millis(2));
}

TEST_F(NetworkTest, UnknownEndpointThrows) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  EXPECT_THROW(network.send(a, NodeId{99}, Ping{}), std::out_of_range);
}

TEST_F(NetworkTest, BytesAccounted) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.send(a, b, Ping{});
  EXPECT_GT(network.bytes_sent(), 0u);
}

TEST_F(NetworkTest, WireSizeHonoredWhenProvided) {
  struct Sized {
    std::uint32_t wire_size() const { return 1000; }
  };
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  const auto before = network.bytes_sent();
  network.send(a, b, Sized{});
  EXPECT_GE(network.bytes_sent() - before, 1000u);
}

// --- disturbance hooks (chaos harness) --------------------------------------

TEST_F(NetworkTest, DuplicationDeliversExtraCopies) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(1), sim::kSimTimeZero, 0.0};
  });
  network.set_duplicate_probability(1.0);
  for (int i = 0; i < 10; ++i) network.send(a, b, Ping{i});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(inbox.size(), 20u) << "p=1: every message arrives twice";
  EXPECT_EQ(network.messages_duplicated(), 10u);
  EXPECT_EQ(metrics.counter_value("riot_net_duplicated_total"), 10u);
  // Copies are real deliveries of the same message id.
  EXPECT_EQ(network.messages_delivered(), 20u);
}

TEST_F(NetworkTest, DuplicationOffByDefault) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  for (int i = 0; i < 10; ++i) network.send(a, b, Ping{i});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(inbox.size(), 10u);
  EXPECT_EQ(network.messages_duplicated(), 0u);
}

TEST_F(NetworkTest, LatencyFactorStretchesDelivery) {
  std::vector<Message> inbox;
  const NodeId a = make_sink(&inbox);
  const NodeId b = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(7), sim::kSimTimeZero, 0.0};
  });
  network.set_latency_factor(3.0);
  network.send(a, b, Ping{1});
  sim.run_until(sim::millis(20));
  EXPECT_TRUE(inbox.empty()) << "7 ms link under 3x congestion takes 21 ms";
  sim.run_until(sim::millis(22));
  EXPECT_EQ(inbox.size(), 1u);
  network.set_latency_factor(1.0);
  network.send(a, b, Ping{2});
  sim.run_until(sim::millis(30));
  EXPECT_EQ(inbox.size(), 2u) << "nominal latency restored";
}

TEST_F(NetworkTest, ClockSkewShiftsOneNodesClockOnly) {
  struct Probe : Node {
    using Node::Node;
  };
  Probe skewed(network);
  Probe nominal(network);
  network.set_clock_skew(skewed.id(), sim::seconds(2));
  sim.run_until(sim::millis(100));
  EXPECT_EQ(skewed.now(), sim.now() + sim::seconds(2));
  EXPECT_EQ(nominal.now(), sim.now());
  EXPECT_EQ(network.clock_skew(skewed.id()), sim::seconds(2));
  EXPECT_EQ(network.clock_skew(NodeId{999}), sim::kSimTimeZero)
      << "unknown endpoints read as unskewed";
  EXPECT_EQ(trace.count("net", "clock_skew"), 1u);
  network.set_clock_skew(skewed.id(), sim::seconds(2));  // idempotent
  EXPECT_EQ(trace.count("net", "clock_skew"), 1u);
  network.set_clock_skew(skewed.id(), sim::kSimTimeZero);
  EXPECT_EQ(skewed.now(), sim.now());
  EXPECT_EQ(trace.count("net", "clock_skew"), 2u);
}

// --- Byzantine sender knobs (chaos `falsify` / `selective_drop` /
// --- `delay_inflate` land here) ---------------------------------------------

TEST_F(NetworkTest, FalsifyTaintsButStillDelivers) {
  std::vector<Message> inbox;
  const NodeId liar = make_sink(&inbox);
  const NodeId honest = make_sink(&inbox);
  inbox.clear();
  network.set_falsify(liar, 1.0);
  network.send(liar, honest, Ping{7});
  network.send(honest, liar, Ping{8});
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(inbox.size(), 2u);
  for (const Message& m : inbox) {
    // Falsification is sender-attributed, payload-preserving: the taint
    // flag flips, the bytes do not — crash-fault protocols stay oblivious.
    EXPECT_EQ(m.tainted, m.from == liar);
    EXPECT_EQ(m.as<Ping>().value, m.from == liar ? 7 : 8);
  }
  EXPECT_EQ(metrics.counter_value("riot_net_falsified_total", {}), 1u);
  EXPECT_EQ(network.falsify_probability(liar), 1.0);
  network.set_falsify(liar, 0.0);
  network.send(liar, honest, Ping{9});
  sim.run_until(sim::seconds(2));
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_FALSE(inbox.back().tainted) << "knob reverts cleanly";
}

TEST_F(NetworkTest, SelectiveDropIsSenderScopedAndCounted) {
  std::vector<Message> inbox;
  const NodeId dropper = make_sink(&inbox);
  const NodeId honest = make_sink(&inbox);
  inbox.clear();
  network.set_selective_drop(dropper, 1.0);
  network.send(dropper, honest, Ping{1});
  network.send(honest, dropper, Ping{2});
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(inbox.size(), 1u) << "only the honest sender's message lands";
  EXPECT_EQ(inbox[0].from, honest);
  EXPECT_EQ(metrics.counter_value("riot_net_dropped_total",
                                  {{"reason", "byzantine"}}),
            1u);
  EXPECT_EQ(network.selective_drop_probability(dropper), 1.0);
  network.set_selective_drop(dropper, 0.0);
  network.send(dropper, honest, Ping{3});
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(inbox.size(), 2u);
}

TEST_F(NetworkTest, DelayInflationStretchesOnlyTheByzantineSender) {
  std::vector<Message> inbox;
  const NodeId slow = make_sink(&inbox);
  const NodeId honest = make_sink(&inbox);
  inbox.clear();
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(10), sim::kSimTimeZero, 0.0};
  });
  network.set_delay_inflation(slow, 4.0);
  network.send(slow, honest, Ping{1});
  network.send(honest, slow, Ping{2});
  sim.run_until(sim::millis(11));
  ASSERT_EQ(inbox.size(), 1u) << "honest 10 ms latency unchanged";
  EXPECT_EQ(inbox[0].from, honest);
  sim.run_until(sim::millis(39));
  EXPECT_EQ(inbox.size(), 1u) << "inflated message still in flight";
  sim.run_until(sim::millis(41));
  ASSERT_EQ(inbox.size(), 2u) << "arrives at 4x the link latency";
  EXPECT_EQ(network.delay_inflation(slow), 4.0);
  EXPECT_EQ(network.delay_inflation(NodeId{999}), 1.0)
      << "unknown endpoints read as uninflated";
}

// chaos_hooks_for: two logical nodes of two endpoints each.
struct ChaosHooksTest : NetworkTest {
  Sink<Ping> a0{network}, a1{network}, b0{network}, b1{network};
  LogicalNodes nodes{{&a0, &a1}, {&b0, &b1}};
  sim::chaos::ChaosHooks hooks = chaos_hooks_for(network, nodes);

  bool cut_off(Node& x, Node& y) const {
    return !network.reachable(x.id(), y.id()) &&
           !network.reachable(y.id(), x.id());
  }
};

TEST_F(ChaosHooksTest, BindsEveryHook) {
  EXPECT_TRUE(hooks.crash_node && hooks.restart_node && hooks.partition &&
              hooks.heal && hooks.isolate && hooks.unisolate &&
              hooks.ambient_loss && hooks.latency_factor && hooks.duplicate &&
              hooks.clock_skew && hooks.falsify && hooks.selective_drop &&
              hooks.delay_inflate);
}

TEST_F(ChaosHooksTest, CrashAndRestartTakeEveryEndpointOfTheNode) {
  hooks.crash_node(1);
  EXPECT_TRUE(a0.alive() && a1.alive());
  EXPECT_FALSE(b0.alive() || b1.alive());
  EXPECT_FALSE(network.node_up(b0.id()) || network.node_up(b1.id()));
  hooks.restart_node(1);
  EXPECT_TRUE(b0.alive() && b1.alive());
  EXPECT_TRUE(network.node_up(b0.id()) && network.node_up(b1.id()));
}

TEST_F(ChaosHooksTest, PartitionAndIsolationCoverEveryEndpoint) {
  hooks.partition({1});
  for (Node* a : {&a0, &a1}) {
    for (Node* b : {&b0, &b1}) EXPECT_TRUE(cut_off(*a, *b));
  }
  EXPECT_FALSE(cut_off(a0, a1));
  EXPECT_FALSE(cut_off(b0, b1));
  hooks.heal();
  EXPECT_FALSE(cut_off(a0, b1));

  hooks.isolate(1);
  EXPECT_TRUE(cut_off(b0, b1));
  EXPECT_TRUE(cut_off(a0, b0) && cut_off(a1, b1));
  EXPECT_FALSE(cut_off(a0, a1));
  hooks.unisolate(1);
  EXPECT_FALSE(cut_off(b0, b1));
  EXPECT_FALSE(cut_off(a0, b0));
}

TEST_F(ChaosHooksTest, PerNodeKnobsReachEveryEndpoint) {
  hooks.clock_skew(1, sim::seconds(2));
  hooks.falsify(1, 0.5);
  hooks.selective_drop(1, 0.25);
  hooks.delay_inflate(1, 3.0);
  for (Node* b : {&b0, &b1}) {
    EXPECT_EQ(network.clock_skew(b->id()), sim::seconds(2));
    EXPECT_EQ(network.falsify_probability(b->id()), 0.5);
    EXPECT_EQ(network.selective_drop_probability(b->id()), 0.25);
    EXPECT_EQ(network.delay_inflation(b->id()), 3.0);
  }
  for (Node* a : {&a0, &a1}) {
    EXPECT_EQ(network.clock_skew(a->id()), sim::kSimTimeZero);
    EXPECT_EQ(network.falsify_probability(a->id()), 0.0);
    EXPECT_EQ(network.selective_drop_probability(a->id()), 0.0);
    EXPECT_EQ(network.delay_inflation(a->id()), 1.0);
  }
}

TEST_F(ChaosHooksTest, GlobalKnobsSetTheNetwork) {
  hooks.ambient_loss(0.3);
  hooks.latency_factor(2.5);
  hooks.duplicate(0.1);
  EXPECT_EQ(network.ambient_loss(), 0.3);
  EXPECT_EQ(network.latency_factor(), 2.5);
  EXPECT_EQ(network.duplicate_probability(), 0.1);
}

TEST_F(ChaosHooksTest, IndexWithoutEndpointsIsANoOp) {
  hooks.crash_node(5);
  hooks.partition({5});
  hooks.isolate(5);
  hooks.clock_skew(5, sim::seconds(1));
  hooks.falsify(5, 0.9);
  hooks.selective_drop(5, 0.9);
  hooks.delay_inflate(5, 9.0);
  hooks.unisolate(5);
  hooks.restart_node(5);
  for (Node* n : {&a0, &a1, &b0, &b1}) {
    EXPECT_TRUE(n->alive());
    EXPECT_EQ(network.clock_skew(n->id()), sim::kSimTimeZero);
    EXPECT_EQ(network.falsify_probability(n->id()), 0.0);
    EXPECT_EQ(network.selective_drop_probability(n->id()), 0.0);
    EXPECT_EQ(network.delay_inflation(n->id()), 1.0);
    for (Node* m : {&a0, &a1, &b0, &b1}) EXPECT_FALSE(cut_off(*n, *m));
  }
}

}  // namespace
}  // namespace riot::net
