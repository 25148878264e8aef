// Allocation gates for the serving request path, CRDT anti-entropy and
// sharded delivery.
//
// After a warm-up that grows every slab and table to its working size, the
// request path must not touch the heap: kernel events with inline-sized
// captures, Node timers, sync and async RPC round trips, timeouts with
// retries and breaker fail-fasts each make zero allocations, and a
// ServingFabric window stays at or below one allocation per request. One
// anti-entropy exchange between converged CrdtStores costs a fixed number
// of allocations, however many tags their OR-Set has collected. Delivery
// on the sharded fabric, cross-shard exchange included, makes none. A SWIM
// member answering a ping allocates only the update list its ack carries,
// even when its piggyback queue must be reordered first.
// Counts come from the shared counting operator new (alloc_count.hpp), so
// this file is its own test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "alloc_count.hpp"
#include "data/crdt_store.hpp"
#include "membership/swim.hpp"
#include "net/rpc.hpp"
#include "net/shard_net.hpp"
#include "net_fixture.hpp"
#include "obs/slo.hpp"
#include "sim/sharded.hpp"
#include "sim/workload/generator.hpp"
#include "sim/workload/service.hpp"

namespace riot {
namespace {

/// Heap allocations made while `fn` runs.
template <typename F>
std::uint64_t allocs_during(F&& fn) {
  const std::uint64_t before = alloc::heap_allocs();
  fn();
  return alloc::heap_allocs() - before;
}

/// Run `round` three times to reach steady state, then count a fourth.
template <typename F>
std::uint64_t steady_allocs(F&& round) {
  for (int i = 0; i < 3; ++i) round();
  return allocs_during(round);
}

constexpr int kBatch = 64;

TEST(AllocRequestPath, KernelEventWithInlineCapture) {
  using Callback = sim::Simulation::Callback;
  sim::Simulation sim;
  std::uint64_t sum = 0;
  auto round = [&] {
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t a = i, b = 2, c = 3, d = 4, e = 5, f = 6;
      auto event = [&sum, a, b, c, d, e, f] { sum += a + b + c + d + e + f; };
      static_assert(sizeof(event) == 56);
      static_assert(Callback::stores_inline<decltype(event)>());
      sim.schedule_after(sim::millis(1 + i % 4), std::move(event));
    }
    sim.run_for(sim::millis(10));
  };
  EXPECT_EQ(steady_allocs(round), 0u);
  EXPECT_GT(sum, 0u);
}

struct EchoReq {
  int value = 0;
};
struct EchoResp {
  int value = 0;
};

struct Host : net::Node {
  explicit Host(net::Network& network) : Node(network), rpc(*this) {}
  net::RpcEndpoint rpc;
};

struct AllocRpcTest : testing::NetFixture {
  AllocRpcTest() : client(network), server(network) {
    // Small enough that the warm-up fills it: replies then overwrite the
    // oldest cached entry instead of growing the ring.
    server.rpc.set_dedup_capacity(16);
  }

  /// Issue a batch of calls, then run until every one has resolved.
  void calls(net::RpcOptions options) {
    for (int i = 0; i < kBatch; ++i) {
      client.rpc.call_result<EchoReq, EchoResp>(
          server.id(), EchoReq{i}, options,
          [this](net::RpcResult<EchoResp> r) {
            ++outcomes[static_cast<std::size_t>(r.error)];
          });
    }
    sim.run_for(sim::seconds(2));
  }

  Host client;
  Host server;
  std::array<std::uint64_t, 5> outcomes{};
};

TEST_F(AllocRpcTest, NodeTimer) {
  int fired = 0;
  auto round = [&] {
    for (int i = 0; i < kBatch; ++i) {
      client.after(sim::millis(1 + i % 4), [&fired] { ++fired; });
    }
    sim.run_for(sim::millis(10));
  };
  EXPECT_EQ(steady_allocs(round), 0u);
  EXPECT_EQ(fired, 4 * kBatch);
}

TEST_F(AllocRpcTest, SyncRoundTrip) {
  server.rpc.serve<EchoReq, EchoResp>(
      [](net::NodeId, const EchoReq& req) { return EchoResp{req.value * 2}; });
  EXPECT_EQ(steady_allocs([&] { calls(net::RpcOptions{}); }), 0u);
  EXPECT_EQ(outcomes[0], 4u * kBatch);
}

TEST_F(AllocRpcTest, AsyncRoundTrip) {
  server.rpc.serve_async<EchoReq, EchoResp>(
      [this](net::NodeId, const EchoReq& req, sim::SimTime,
             net::RpcResponder<EchoResp> respond) {
        sim.schedule_after(sim::millis(1), [respond, v = req.value * 2] {
          respond(EchoResp{v});
        });
      });
  EXPECT_EQ(steady_allocs([&] { calls(net::RpcOptions{}); }), 0u);
  EXPECT_EQ(outcomes[0], 4u * kBatch);
  EXPECT_EQ(server.rpc.in_progress_count(), 0u);
}

TEST_F(AllocRpcTest, TimeoutAndRetry) {
  server.crash();
  const net::RpcOptions options{.timeout = sim::millis(50),
                                .max_attempts = 2,
                                .use_breaker = false};
  EXPECT_EQ(steady_allocs([&] { calls(options); }), 0u);
  EXPECT_EQ(outcomes[static_cast<std::size_t>(net::RpcError::kTimeout)],
            4u * kBatch);
  EXPECT_EQ(client.rpc.retries(), 4u * kBatch);
}

TEST_F(AllocRpcTest, BreakerFailFast) {
  server.crash();
  client.rpc.set_breaker(net::BreakerConfig{.window = 4,
                                            .min_samples = 2,
                                            .failure_threshold = 0.5,
                                            .open_timeout = sim::minutes(60)});
  calls(net::RpcOptions{.timeout = sim::millis(50)});  // trips the breaker
  ASSERT_EQ(client.rpc.breaker_state(server.id()), net::BreakerState::kOpen);
  const std::uint64_t failed_fast = client.rpc.failed_fast();
  EXPECT_EQ(steady_allocs([&] { calls(net::RpcOptions{}); }), 0u);
  EXPECT_EQ(client.rpc.failed_fast() - failed_fast, 4u * kBatch);
}

struct AllocServingTest : testing::NetFixture {};

TEST_F(AllocServingTest, FabricWindowStaysUnderOneAllocPerRequest) {
  sim::workload::ServingFabric fabric(network, sim::workload::FabricConfig{});
  obs::SloTracker slo(metrics, "serving", sim::millis(250));
  sim::workload::ClientBank bank(network, fabric,
                                 net::RpcOptions{.timeout = sim::millis(250),
                                                 .max_attempts = 2,
                                                 .deadline = sim::millis(600)},
                                 slo);
  sim::workload::OpenLoopGenerator generator(
      sim, {.clients = 2000, .rate_per_client_hz = 1.0},
      [&bank](std::uint32_t client) { bank.issue(client); });
  generator.start();
  sim.run_until(sim::seconds(2));  // warm-up
  const std::uint64_t issued = bank.issued();
  const std::uint64_t allocs =
      allocs_during([&] { sim.run_until(sim::seconds(4)); });
  const std::uint64_t requests = bank.issued() - issued;
  ASSERT_GT(requests, 3000u);
  EXPECT_LE(allocs, requests) << allocs << " allocations for " << requests
                              << " requests";
  EXPECT_GT(bank.succeeded(), 0u);
}

struct AllocCrdtTest : testing::NetFixture {
  /// Two replicas that know only each other. Neither is started, so they
  /// sync only when told to.
  struct Pair {
    explicit Pair(net::Network& network) : a(network), b(network) {
      a.set_replicas({b.id()});
      b.set_replicas({a.id()});
    }
    data::CrdtStore a;
    data::CrdtStore b;
  };

  /// Allocations of one exchange (a's request, b's merge and reply, a's
  /// merge) once the pair has converged on an OR-Set of `tags` tags spread
  /// over seven elements, the chaos soak's shape.
  std::uint64_t converged_exchange_allocs(Pair& pair, int tags) {
    for (int i = 0; i < tags; ++i) {
      data::CrdtStore& writer = i % 2 == 0 ? pair.a : pair.b;
      writer.orset("tags").add("t" + std::to_string(i % 7),
                               writer.replica_id());
    }
    return steady_allocs([&] {
      pair.a.sync_now();
      sim.run_for(sim::seconds(1));
    });
  }

  Pair small{network};
  Pair large{network};
};

TEST_F(AllocCrdtTest, ConvergedExchangeCostDoesNotGrowWithTags) {
  const std::uint64_t at_30 = converged_exchange_allocs(small, 30);
  const std::uint64_t at_300 = converged_exchange_allocs(large, 300);
  ASSERT_EQ(large.b.orset("tags").size(), 7u);
  ASSERT_TRUE(data::stores_converged(large.a, large.b));
  EXPECT_EQ(at_30, at_300);
  // The request and the reply each copy the store, one allocation per
  // vector (objects, live elements, seven tag vectors, tag counters).
  // Merging tags both sides already hold allocates nothing.
  EXPECT_LE(at_300, 20u);
}

struct AllocSwimTest : testing::NetFixture {
  /// Pings the member and counts the updates its acks carry.
  struct Prober : net::Node {
    explicit Prober(net::Network& network) : net::Node(network) {
      on<membership::SwimMember::Ack>(
          [this](net::NodeId, const membership::SwimMember::Ack& ack) {
            ++acks;
            carried += ack.updates.size();
          });
    }
    std::uint64_t acks = 0;
    std::uint64_t carried = 0;
  };
};

TEST_F(AllocSwimTest, PingWithLongOutboxAllocatesOnlyTheAckUpdates) {
  // Never started, so only the prober's pings drive the member.
  membership::SwimMember member(network);
  Prober prober(network);
  const auto slots =
      static_cast<std::uint64_t>(membership::SwimConfig{}.max_piggyback);
  // Rumours about 40 members it has never heard of: each is admitted and
  // queued, so its outbox holds far more than one ack's slots.
  std::vector<membership::MemberUpdate> rumours;
  for (std::uint32_t i = 0; i < 40; ++i) {
    rumours.push_back({net::NodeId{1000 + i}, membership::MemberState::kAlive,
                       1});
  }
  prober.send(member.id(), membership::SwimMember::Ping{1, rumours});
  sim.run_for(sim::millis(100));
  std::uint64_t seq = 2;
  const std::uint64_t allocs = steady_allocs([&] {
    prober.send(member.id(), membership::SwimMember::Ping{seq++, {}});
    sim.run_for(sim::millis(100));
  });
  ASSERT_EQ(prober.acks, 5u);
  EXPECT_EQ(prober.carried, 5 * slots) << "every ack rides full";
  EXPECT_EQ(allocs, 1u);
}

struct Ball {};

TEST(AllocShardTest, CrossShardPingPongDeliveryAllocatesNothing) {
  // Endpoint e plays with e + 32 on another shard; every receipt replies.
  constexpr std::uint32_t kEndpoints = 64;
  for (const std::size_t shards : {2u, 4u}) {
    sim::ShardedSimulation kernel(shards, 11);
    net::ShardedNetwork fabric(kernel);
    for (std::uint32_t e = 0; e < kEndpoints; ++e) {
      fabric.register_endpoint(
          e * shards / kEndpoints, [&fabric](const net::Message& m) {
            fabric.send(m.to, m.from, Ball{});
          });
    }
    fabric.set_class_link(0, 0, {sim::millis(2), sim::millis(1), 0.0});
    fabric.seal();
    for (std::uint32_t e = 0; e < kEndpoints / 2; ++e) {
      fabric.send(net::NodeId{e}, net::NodeId{e + kEndpoints / 2}, Ball{});
    }
    kernel.run_until(sim::seconds(1));  // warm-up
    const std::uint64_t delivered = fabric.messages_delivered();
    const std::uint64_t allocs =
        allocs_during([&] { kernel.run_until(sim::seconds(3)); });
    ASSERT_GT(fabric.messages_delivered() - delivered, 20000u);
    EXPECT_EQ(allocs, 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace riot
