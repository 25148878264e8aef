#include "net/shard_net.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/sharded.hpp"
#include "sim/time.hpp"

namespace riot::net {
namespace {

struct Token {
  std::uint32_t hops = 0;
};

// Ping-pong population: endpoint e (< N/2) is paired with e + N/2; each
// receipt replies until the token's hop budget is spent. Endpoints are
// placed in contiguous blocks, so the halves land on different shards and
// nearly all traffic is cross-shard. Every stochastic draw (loss, jitter)
// comes from the per-endpoint stream inside the fabric — the whole run is
// a function of (seed, config), not of shard count.
struct PingPongRig {
  static constexpr std::size_t kEndpoints = 96;
  static constexpr std::uint32_t kHops = 6;

  PingPongRig(std::size_t shards, std::uint64_t seed)
      : kernel(shards, seed), net(kernel) {
    for (std::size_t e = 0; e < kEndpoints; ++e) {
      const std::size_t shard = e * shards / kEndpoints;  // block partition
      const NodeId id = net.register_endpoint(
          shard, [this](const Message& m) { on_message(m); });
      net.set_endpoint_class(id, e < kEndpoints / 2 ? 0 : 1);
    }
    net.set_class_link(0, 0, {sim::millis(2), sim::millis(1), 0.02});
    net.set_class_link(1, 1, {sim::millis(3), sim::kSimTimeZero, 0.0});
    net.set_class_link(0, 1, {sim::millis(5), sim::millis(2), 0.05});
    net.set_class_link(1, 0, {sim::millis(5), sim::millis(2), 0.05});
    net.set_ambient_loss(0.01);
    net.seal();
  }

  void on_message(const Message& m) {
    const auto& token = m.as<Token>();
    if (token.hops == 0) return;
    net.send(m.to, m.from, Token{token.hops - 1});
  }

  void run() {
    for (std::size_t e = 0; e < kEndpoints / 2; ++e) {
      net.send(NodeId{static_cast<std::uint32_t>(e)},
               NodeId{static_cast<std::uint32_t>(e + kEndpoints / 2)},
               Token{kHops});
    }
    kernel.run_until(sim::seconds(2));
  }

  sim::ShardedSimulation kernel;
  ShardedNetwork net;
};

struct RunFingerprint {
  std::uint64_t sent, delivered, dropped, cross, bytes, hash, events;
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint(PingPongRig& rig) {
  return {rig.net.messages_sent(),    rig.net.messages_delivered(),
          rig.net.messages_dropped(), rig.net.messages_cross_shard(),
          rig.net.bytes_sent(),       rig.net.delivery_hash(),
          rig.kernel.executed_events()};
}

TEST(ShardedNetwork, SealDerivesLookaheadFromClassMatrix) {
  PingPongRig rig(4, 1);
  // Minimum base latency over the class cells reachable by registered
  // endpoints: the (0,0) edge-to-edge link at 2 ms.
  EXPECT_EQ(rig.net.lookahead(), sim::millis(2));
  EXPECT_EQ(rig.kernel.lookahead(), sim::millis(2));
}

TEST(ShardedNetwork, DeterminismMatrixAcrossShardCountsAndSeeds) {
  for (std::uint64_t seed : {1ULL, 77ULL}) {
    RunFingerprint baseline{};
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      PingPongRig rig(shards, seed);
      rig.run();
      RunFingerprint fp = fingerprint(rig);
      // cross-shard count is the one legitimately shard-dependent number
      fp.cross = 0;
      if (shards == 1) {
        baseline = fp;
        EXPECT_GE(baseline.sent, PingPongRig::kEndpoints / 2);
        EXPECT_GT(baseline.delivered, 0u);
      } else {
        EXPECT_EQ(fp, baseline) << "shards=" << shards << " seed=" << seed;
      }
    }
  }
}

TEST(ShardedNetwork, RepeatRunsAreBitIdentical) {
  auto once = [] {
    PingPongRig rig(4, 42);
    rig.run();
    return fingerprint(rig);
  };
  EXPECT_EQ(once(), once());
}

TEST(ShardedNetwork, CountsBalance) {
  PingPongRig rig(2, 9);
  rig.run();
  // Every submitted message either delivered or dropped (loss at submit,
  // dead endpoint at delivery); nothing is in flight once the run drains.
  EXPECT_EQ(rig.net.messages_delivered() + rig.net.messages_dropped(),
            rig.net.messages_sent());
}

TEST(ShardedNetwork, ZeroLookaheadSameTimestampCrossShardDelivery) {
  // Zero-latency links force lookahead 0: a reply submitted at time T for
  // delivery at the same T on another shard must land via the kernel's
  // same-timestamp exchange rounds, not deadlock and not slip to T+1.
  sim::ShardedSimulation kernel(2, 3);
  ShardedNetwork net(kernel);
  std::vector<sim::SimTime> arrivals;
  const NodeId a = net.register_endpoint(0, [&](const Message& m) {
    arrivals.push_back(kernel.shard(0).now());
    const auto& token = m.as<Token>();
    if (token.hops > 0) net.send(m.to, m.from, Token{token.hops - 1});
  });
  const NodeId b = net.register_endpoint(1, [&](const Message& m) {
    arrivals.push_back(kernel.shard(1).now());
    const auto& token = m.as<Token>();
    if (token.hops > 0) net.send(m.to, m.from, Token{token.hops - 1});
  });
  net.set_class_link(0, 0, {sim::kSimTimeZero, sim::kSimTimeZero, 0.0});
  net.seal();
  EXPECT_EQ(net.lookahead(), sim::kSimTimeZero);
  net.send(a, b, Token{4});
  kernel.run_until(sim::millis(1));
  ASSERT_EQ(arrivals.size(), 5u);
  for (const sim::SimTime at : arrivals) EXPECT_EQ(at, sim::kSimTimeZero);
  EXPECT_EQ(net.messages_delivered(), 5u);
  EXPECT_GE(kernel.windows(), 5u);
}

TEST(ShardedNetwork, CrossShardSendExecutesOnTarget) {
  sim::ShardedSimulation kernel(2, 7);
  ShardedNetwork net(kernel);
  int landed = 0;                              // written by shard 1
  sim::SimTime landed_at = sim::kSimTimeZero;  // written by shard 1
  const NodeId a = net.register_endpoint(0, [](const Message&) {});
  const NodeId b = net.register_endpoint(1, [&](const Message&) {
    ++landed;
    landed_at = kernel.shard(1).now();
  });
  net.set_class_link(0, 0, {sim::millis(1), sim::kSimTimeZero, 0.0});
  net.seal();
  kernel.shard(0).schedule_at(sim::millis(5),
                              [&net, a, b] { net.send(a, b, Token{}); });
  kernel.run_until(sim::millis(50));
  EXPECT_EQ(landed, 1);
  EXPECT_EQ(landed_at, sim::millis(6));
  EXPECT_EQ(net.messages_cross_shard(), 1u);
}

TEST(ShardedNetwork, SameTimestampSendsOrderedByIdNotArrival) {
  // Senders on shards 1 and 2 each send two messages to one endpoint on
  // shard 0, all due at 10 ms. The receiver must see them in message-id
  // order, whatever order the workers ran in. The shard-2 sender registers
  // first, so id order is not source-shard order either.
  sim::ShardedSimulation kernel(3, 9);
  ShardedNetwork net(kernel);
  std::vector<std::uint64_t> order;  // written only by shard 0's worker
  const NodeId sink = net.register_endpoint(
      0, [&order](const Message& m) { order.push_back(m.id); });
  const NodeId on2 = net.register_endpoint(2, [](const Message&) {});
  const NodeId on1 = net.register_endpoint(1, [](const Message&) {});
  net.set_class_link(0, 0, {sim::millis(8), sim::kSimTimeZero, 0.0});
  net.seal();
  for (const NodeId from : {on1, on2}) {
    kernel.shard(net.shard_of(from))
        .schedule_at(sim::millis(2), [&net, from, sink] {
          net.send(from, sink, Token{});
          net.send(from, sink, Token{});
        });
  }
  kernel.run_until(sim::millis(50));
  // Message ids are (sender << 32 | sender sequence).
  const auto id = [](NodeId sender, std::uint64_t seq) {
    return (std::uint64_t{sender.value} << 32) | seq;
  };
  EXPECT_EQ(order, (std::vector<std::uint64_t>{id(on2, 0), id(on2, 1),
                                               id(on1, 0), id(on1, 1)}));
}

TEST(ShardedNetwork, CrossShardWorkCarriesIntoTheNextRun) {
  sim::ShardedSimulation kernel(3, 4);
  ShardedNetwork net(kernel);
  sim::SimTime at0 = sim::kSimTimeZero;  // written by shard 0
  sim::SimTime at1 = sim::kSimTimeZero;  // written by shard 1
  const NodeId a = net.register_endpoint(
      0, [&](const Message&) { at0 = kernel.shard(0).now(); });
  const NodeId b = net.register_endpoint(
      1, [&](const Message&) { at1 = kernel.shard(1).now(); });
  const NodeId c = net.register_endpoint(2, [](const Message&) {});
  net.set_class_link(0, 0, {sim::millis(5), sim::kSimTimeZero, 0.0});
  net.seal();
  // Sent inside the first run, due after its deadline.
  kernel.shard(0).schedule_at(sim::millis(9),
                              [&net, a, b] { net.send(a, b, Token{}); });
  kernel.run_until(sim::millis(10));
  EXPECT_EQ(kernel.executed_events(), 1u);
  EXPECT_EQ(kernel.pending_events(), 1u);  // already on shard 1's queue
  // Sent between runs from shard 2's endpoint: no window is open, so it
  // goes straight onto shard 0's queue.
  net.send(c, a, Token{});
  EXPECT_EQ(kernel.pending_events(), 2u);
  kernel.run_until(sim::millis(20));
  EXPECT_EQ(at1, sim::millis(14));
  EXPECT_EQ(at0, sim::millis(15));
  EXPECT_EQ(kernel.executed_events(), 3u);
  kernel.run_until(sim::millis(30));  // nothing left: no window opens
  EXPECT_EQ(kernel.windows(), 0u);
  EXPECT_EQ(kernel.shard(2).now(), sim::millis(30));
}

TEST(ShardedNetwork, SendsStrandedByAFailedRunLandInTheNextRun) {
  sim::ShardedSimulation kernel(3, 6);
  ShardedNetwork net(kernel);
  sim::SimTime landed = sim::kSimTimeZero;  // written by shard 1
  const NodeId a = net.register_endpoint(0, [](const Message&) {});
  const NodeId b = net.register_endpoint(
      1, [&](const Message&) { landed = kernel.shard(1).now(); });
  net.set_class_link(0, 0, {sim::millis(3), sim::kSimTimeZero, 0.0});
  net.seal();
  kernel.shard(0).schedule_at(sim::millis(5),
                              [&net, a, b] { net.send(a, b, Token{}); });
  kernel.shard(2).schedule_at(sim::millis(5), [] {
    throw std::runtime_error("boom on shard 2");
  });
  EXPECT_THROW(kernel.run_until(sim::millis(20)), std::runtime_error);
  EXPECT_EQ(landed, sim::kSimTimeZero);
  kernel.run_until(sim::millis(20));
  EXPECT_EQ(landed, sim::millis(8));
}

TEST(ShardedNetwork, UnsealedCrossShardSendIsDelivered) {
  // The exchange hook is installed with the fabric, so a cross-shard send
  // on a fabric that was never sealed still leaves its outbox.
  sim::ShardedSimulation kernel(2, 5);
  ShardedNetwork net(kernel);
  sim::SimTime landed = sim::kSimTimeZero;  // written by shard 1
  const NodeId a = net.register_endpoint(0, [](const Message&) {});
  const NodeId b = net.register_endpoint(
      1, [&](const Message&) { landed = kernel.shard(1).now(); });
  net.set_class_link(0, 0, {sim::millis(1), sim::kSimTimeZero, 0.0});
  kernel.shard(0).schedule_at(sim::millis(5),
                              [&net, a, b] { net.send(a, b, Token{}); });
  kernel.run_until(sim::millis(50));
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(landed, sim::millis(6));
}

TEST(ShardedNetwork, DownEndpointDropsAtDelivery) {
  sim::ShardedSimulation kernel(2, 1);
  ShardedNetwork net(kernel);
  int got = 0;
  const NodeId a = net.register_endpoint(0, [&](const Message&) { ++got; });
  const NodeId b = net.register_endpoint(1, [&](const Message&) { ++got; });
  net.seal();
  net.set_node_up(b, false);
  net.send(a, b, Token{0});
  kernel.run_until(sim::millis(10));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
  // A down *sender* does not even submit.
  net.set_node_up(a, false);
  EXPECT_EQ(net.send(a, b, Token{0}), 0u);
  EXPECT_EQ(net.messages_sent(), 1u);
}

TEST(ShardedNetwork, ShardPlacement) {
  sim::ShardedSimulation kernel(3, 1);
  ShardedNetwork net(kernel);
  const NodeId x = net.register_endpoint(2, [](const Message&) {});
  EXPECT_EQ(net.shard_of(x), 2u);
  EXPECT_THROW(net.register_endpoint(3, [](const Message&) {}),
               std::out_of_range);
}

TEST(ShardedNetwork, RegistrationSealedAfterSeal) {
  sim::ShardedSimulation kernel(2, 1);
  ShardedNetwork net(kernel);
  const NodeId a = net.register_endpoint(0, [](const Message&) {});
  net.seal();
  // Every shard reads the routes, the class table and the ambient loss, so
  // none of them may change once the run can start.
  EXPECT_THROW(net.register_endpoint(0, [](const Message&) {}),
               std::logic_error);
  EXPECT_THROW(net.set_class_link(0, 1, {}), std::logic_error);
  EXPECT_THROW(net.set_endpoint_class(a, 1), std::logic_error);
  EXPECT_THROW(net.set_ambient_loss(0.5), std::logic_error);
}

}  // namespace
}  // namespace riot::net
