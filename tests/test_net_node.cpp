#include "net/node.hpp"

#include <gtest/gtest.h>

#include "net_fixture.hpp"

namespace riot::net {
namespace {

using riot::testing::NetFixture;
using riot::testing::Sink;

struct Hello {
  int n = 0;
};
struct Other {
  int n = 0;
};

struct NodeTest : NetFixture {};

TEST_F(NodeTest, TypedDispatch) {
  Sink<Hello> a(network);
  Sink<Hello> b(network);
  a.send(b.id(), Hello{5});
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, a.id());
  EXPECT_EQ(b.received[0].second.n, 5);
}

TEST_F(NodeTest, UnhandledTypesGoToFallback) {
  struct Probe : Node {
    explicit Probe(Network& n) : Node(n) {}
    int unhandled = 0;
    void on_unhandled(const Message&) override { ++unhandled; }
  };
  Probe a(network);
  Probe b(network);
  a.send(b.id(), Other{1});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(b.unhandled, 1);
}

TEST_F(NodeTest, CrashedNodeReceivesNothing) {
  Sink<Hello> a(network);
  Sink<Hello> b(network);
  b.crash();
  a.send(b.id(), Hello{});
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NodeTest, CrashedNodeSendsNothing) {
  Sink<Hello> a(network);
  Sink<Hello> b(network);
  a.crash();
  EXPECT_EQ(a.send(b.id(), Hello{}), 0u);
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NodeTest, RecoveredNodeReceivesAgain) {
  Sink<Hello> a(network);
  Sink<Hello> b(network);
  b.crash();
  b.recover();
  a.send(b.id(), Hello{7});
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(b.received.size(), 1u);
}

TEST_F(NodeTest, TimersDieWithCrash) {
  Sink<Hello> node(network);
  int fired = 0;
  node.after(sim::millis(100), [&] { ++fired; });
  node.every(sim::millis(50), [&] { ++fired; });
  node.crash();
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(fired, 0);
  // The periodic timer cancelled itself on its first firing after the
  // crash instead of re-arming forever.
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_F(NodeTest, OldTimersStayDeadAfterRecovery) {
  Sink<Hello> node(network);
  int fired = 0;
  node.after(sim::millis(100), [&] { ++fired; });
  node.crash();
  node.recover();  // epoch bumped twice; the old timer must not fire
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(fired, 0);
}

TEST_F(NodeTest, NewTimersAfterRecoveryFire) {
  Sink<Hello> node(network);
  node.crash();
  node.recover();
  int fired = 0;
  node.after(sim::millis(10), [&] { ++fired; });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST_F(NodeTest, PeriodicTimerRunsUntilCancelled) {
  Sink<Hello> node(network);
  int fired = 0;
  const sim::EventId id = node.every(sim::millis(10), [&] { ++fired; });
  sim.run_until(sim::millis(55));
  node.cancel(id);
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(fired, 5);
}

TEST_F(NodeTest, LifecycleHooksInvoked) {
  struct Lifecycle : Node {
    explicit Lifecycle(Network& n) : Node(n) {}
    int started = 0, crashed = 0, recovered = 0;
    void on_start() override { ++started; }
    void on_crash() override { ++crashed; }
    void on_recover() override { ++recovered; }
  };
  Lifecycle node(network);
  node.start();
  EXPECT_EQ(node.started, 1);
  node.crash();
  node.crash();  // idempotent
  EXPECT_EQ(node.crashed, 1);
  node.recover();
  node.recover();  // idempotent
  EXPECT_EQ(node.recovered, 1);
}

TEST_F(NodeTest, SelfSendDelivers) {
  Sink<Hello> node(network);
  node.send(node.id(), Hello{3});
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(node.received.size(), 1u);
}

TEST_F(NodeTest, NowTracksSimulation) {
  Sink<Hello> node(network);
  sim.run_until(sim::millis(123));
  EXPECT_EQ(node.now(), sim::millis(123));
}

}  // namespace
}  // namespace riot::net
