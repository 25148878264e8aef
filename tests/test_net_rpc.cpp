#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net_fixture.hpp"

namespace riot::net {
namespace {

using riot::testing::NetFixture;

struct EchoReq {
  int value = 0;
};
struct EchoResp {
  int value = 0;
};
struct Other {
  int x = 0;
};

struct RpcHost : Node {
  explicit RpcHost(Network& network) : Node(network), rpc(*this) {}
  RpcEndpoint rpc;
};

struct RpcTest : NetFixture {
  RpcTest() : client(network), server(network) {
    server.rpc.serve<EchoReq, EchoResp>(
        [](NodeId, const EchoReq& req) { return EchoResp{req.value * 2}; });
  }
  RpcHost client;
  RpcHost server;
};

TEST_F(RpcTest, CallRoundTrips) {
  std::optional<EchoResp> result;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{21}, RpcOptions{},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 42);
  EXPECT_EQ(client.rpc.completed(), 1u);
}

TEST_F(RpcTest, TimeoutWhenServerDead) {
  server.crash();
  bool called = false;
  std::optional<EchoResp> result{EchoResp{}};
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(100), .max_attempts = 1},
      [&](std::optional<EchoResp> r) {
        called = true;
        result = r;
      });
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client.rpc.timeouts(), 1u);
}

TEST_F(RpcTest, RetrySucceedsAfterRecovery) {
  server.crash();
  sim.schedule_at(sim::millis(150), [&] { server.recover(); });
  std::optional<EchoResp> result;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{5},
      RpcOptions{.timeout = sim::millis(100), .max_attempts = 3},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 10);
  EXPECT_GE(client.rpc.timeouts(), 1u);
}

TEST_F(RpcTest, AllRetriesExhausted) {
  server.crash();
  std::optional<EchoResp> result{EchoResp{}};
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{5},
      RpcOptions{.timeout = sim::millis(50), .max_attempts = 3},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::seconds(2));
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client.rpc.timeouts(), 3u);
}

TEST_F(RpcTest, UnknownRequestTypeFailsFast) {
  // The server answers with an error envelope instead of silently
  // dropping: the caller learns no_handler in one round trip rather than
  // burning the full timeout (and never retries — the peer is healthy).
  struct Unknown {
    int x = 0;
  };
  std::optional<RpcResult<EchoResp>> result;
  client.rpc.call_result<Unknown, EchoResp>(
      server.id(), Unknown{},
      RpcOptions{.timeout = sim::millis(100), .max_attempts = 3},
      [&](RpcResult<EchoResp> r) { result = std::move(r); });
  sim.run_until(sim::millis(50));  // well under the 100ms attempt timeout
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->error, RpcError::kNoHandler);
  EXPECT_EQ(result->attempts, 1);
  EXPECT_EQ(client.rpc.timeouts(), 0u);
}

TEST_F(RpcTest, ConcurrentCallsCorrelate) {
  std::vector<int> results;
  for (int i = 0; i < 10; ++i) {
    client.rpc.call<EchoReq, EchoResp>(
        server.id(), EchoReq{i}, RpcOptions{},
        [&results](std::optional<EchoResp> r) {
          ASSERT_TRUE(r.has_value());
          results.push_back(r->value);
        });
  }
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(results.size(), 10u);
  std::sort(results.begin(), results.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * 2);
}

TEST_F(RpcTest, LateResponseAfterTimeoutIgnored) {
  // Server responds slower than the client timeout: the client must time
  // out once and must not double-complete when the response lands.
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(80), sim::kSimTimeZero, 0.0};
  });
  int completions = 0;
  std::optional<EchoResp> last;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(100), .max_attempts = 1},
      [&](std::optional<EchoResp> r) {
        ++completions;
        last = r;
      });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(last.has_value());
}

TEST_F(RpcTest, StaleResponseNeverMatchesNewerAttempt) {
  // Regression: a response to attempt 1 that lands after the timeout but
  // while attempt 2 is in flight must not be matched to attempt 2. The
  // asymmetric link makes attempt 1's response arrive mid-retry; before
  // attempt tagging this completed the call with a response the newer
  // attempt never earned.
  const NodeId server_id = server.id();
  network.set_link_model([server_id](NodeId from, NodeId) {
    return LinkQuality{from == server_id ? sim::millis(130) : sim::millis(10),
                       sim::kSimTimeZero, 0.0};
  });
  int completions = 0;
  std::optional<RpcResult<EchoResp>> result;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{5},
      RpcOptions{.timeout = sim::millis(100),
                 .max_attempts = 2,
                 .backoff_base = sim::millis(5),
                 .backoff_cap = sim::millis(15)},
      [&](RpcResult<EchoResp> r) {
        ++completions;
        result = std::move(r);
      });
  // Timeline: attempt 1 sent at 0, times out at 100; attempt 2 sent at
  // ~105-115; attempt 1's response (tag 1) arrives at 140 while attempt 2
  // is pending and must be discarded as stale.
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(completions, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->error, RpcError::kTimeout);
  EXPECT_GE(client.rpc.stale_responses(), 1u);
  // Both attempts reached the server; the handler still ran exactly once.
  EXPECT_EQ(server.rpc.handler_executions(), 1u);
  EXPECT_EQ(server.rpc.dedup_hits(), 1u);
}

TEST_F(RpcTest, RetryReplaysCachedResponseAfterSlowFirstReply) {
  // First response is too slow (effectively lost); the retry hits the
  // dedup cache and succeeds without re-executing the handler —
  // at-least-once transport, effectively-once execution.
  const NodeId server_id = server.id();
  auto reply_latency = std::make_shared<sim::SimTime>(sim::millis(150));
  network.set_link_model([server_id, reply_latency](NodeId from, NodeId) {
    return LinkQuality{from == server_id ? *reply_latency : sim::millis(10),
                       sim::kSimTimeZero, 0.0};
  });
  sim.schedule_at(sim::millis(120),
                  [&] { *reply_latency = sim::millis(10); });
  std::optional<RpcResult<EchoResp>> result;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{5},
      RpcOptions{.timeout = sim::millis(100),
                 .max_attempts = 3,
                 .backoff_base = sim::millis(30),
                 .backoff_cap = sim::millis(31)},
      [&](RpcResult<EchoResp> r) { result = std::move(r); });
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok());
  EXPECT_EQ(result->value->value, 10);
  EXPECT_EQ(result->attempts, 2);
  EXPECT_EQ(server.rpc.handler_executions(), 1u);
  EXPECT_EQ(server.rpc.dedup_hits(), 1u);
}

TEST_F(RpcTest, DeadlineBudgetCapsTotalAttempts) {
  server.crash();
  std::optional<RpcResult<EchoResp>> result;
  sim::SimTime done_at = sim::kSimTimeZero;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(100),
                 .max_attempts = 10,
                 .deadline = sim::millis(350),
                 .backoff_base = sim::millis(10),
                 .backoff_cap = sim::millis(20)},
      [&](RpcResult<EchoResp> r) {
        result = std::move(r);
        done_at = sim.now();
      });
  sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  // The budget, not max_attempts, ended the call: 10 attempts at 100ms
  // each can never fit in 350ms. A budget too short for the next backoff
  // ends the call as a timeout (kExpired is the server's shed verdict).
  EXPECT_EQ(result->error, RpcError::kTimeout);
  EXPECT_LT(result->attempts, 10);
  EXPECT_GE(result->attempts, 3);
  EXPECT_LE(done_at, sim::millis(351));
}

TEST_F(RpcTest, ServerShedsExpiredRequests) {
  // Request takes 200ms to arrive but the caller's budget is 150ms: the
  // server must shed it instead of doing dead work.
  network.set_link_model([](NodeId, NodeId) {
    return LinkQuality{sim::millis(200), sim::kSimTimeZero, 0.0};
  });
  std::optional<RpcResult<EchoResp>> result;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(500),
                 .max_attempts = 1,
                 .deadline = sim::millis(150)},
      [&](RpcResult<EchoResp> r) { result = std::move(r); });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(server.rpc.shed(), 1u);
  EXPECT_EQ(server.rpc.handler_executions(), 0u);
}

TEST_F(RpcTest, BreakerOpensAndFailsFast) {
  server.crash();
  client.rpc.set_breaker(BreakerConfig{.window = 10,
                                       .min_samples = 5,
                                       .failure_threshold = 0.5,
                                       .open_timeout = sim::seconds(1)});
  const RpcOptions options{.timeout = sim::millis(50), .max_attempts = 1};
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    client.rpc.call<EchoReq, EchoResp>(
        server.id(), EchoReq{i}, options,
        [&](std::optional<EchoResp> r) { failures += r ? 0 : 1; });
    sim.run_until(sim.now() + sim::millis(100));
  }
  EXPECT_EQ(failures, 5);
  EXPECT_EQ(client.rpc.breaker_state(server.id()), BreakerState::kOpen);
  // Next call fails fast without consuming its timeout.
  std::optional<RpcResult<EchoResp>> result;
  const sim::SimTime issued_at = sim.now();
  sim::SimTime done_at = sim::kSimTimeZero;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{9}, options, [&](RpcResult<EchoResp> r) {
        result = std::move(r);
        done_at = sim.now();
      });
  sim.run_until(sim.now() + sim::millis(100));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->error, RpcError::kCircuitOpen);
  EXPECT_EQ(result->attempts, 0);
  EXPECT_EQ(done_at, issued_at);  // deferred one zero-delay event only
  EXPECT_GE(client.rpc.failed_fast(), 1u);
}

TEST_F(RpcTest, BreakerLifecycleUnderPartitionAndHeal) {
  client.rpc.set_breaker(BreakerConfig{.window = 10,
                                       .min_samples = 4,
                                       .failure_threshold = 0.5,
                                       .open_timeout = sim::millis(500)});
  // Steady client traffic through a partition and its heal. The breaker
  // must open while the server is unreachable, probe half-open after the
  // cooldown, and close again once the path heals.
  std::uint64_t successes = 0;
  client.every(sim::millis(100), [&] {
    client.rpc.call<EchoReq, EchoResp>(
        server.id(), EchoReq{1},
        RpcOptions{.timeout = sim::millis(80), .max_attempts = 1},
        [&](std::optional<EchoResp> r) { successes += r ? 1 : 0; });
  });
  sim.run_until(sim::millis(500));
  EXPECT_GT(successes, 0u);  // healthy before the partition
  partition_away({server.id()});
  sim.run_until(sim::seconds(2));
  // While the server is unreachable the breaker cycles open -> half-open
  // probe -> open; whichever phase the checkpoint lands on, it is not
  // closed and calls are being refused.
  EXPECT_NE(client.rpc.breaker_state(server.id()), BreakerState::kClosed);
  const std::uint64_t fast_fails = client.rpc.failed_fast();
  EXPECT_GT(fast_fails, 0u);
  heal();
  const std::uint64_t successes_before_heal = successes;
  sim.run_until(sim::seconds(4));
  // Cooldown elapsed -> a probe was admitted (half-open), succeeded, and
  // closed the breaker; traffic flows again.
  EXPECT_EQ(client.rpc.breaker_state(server.id()), BreakerState::kClosed);
  EXPECT_GT(successes, successes_before_heal);
  // Trace carries the full lifecycle. While the partition persists, probes
  // may bounce half_open -> open several times; the first transition must
  // be the trip to open and the last the close after the heal, with a
  // half-open probe in between.
  std::vector<std::string> states;
  for (const auto& ev : trace.find("rpc", "breaker")) {
    states.push_back(ev.detail);
  }
  ASSERT_GE(states.size(), 3u);
  EXPECT_NE(states.front().find("state=open"), std::string::npos);
  EXPECT_NE(states.back().find("state=closed"), std::string::npos);
  const bool probed = std::any_of(
      states.begin(), states.end(), [](const std::string& s) {
        return s.find("state=half_open") != std::string::npos;
      });
  EXPECT_TRUE(probed);
}

TEST_F(RpcTest, DuplicatedMessagesExecuteHandlersOnce) {
  enable_duplication(1.0);  // every message delivered twice
  std::vector<int> results;
  for (int i = 0; i < 5; ++i) {
    client.rpc.call<EchoReq, EchoResp>(
        server.id(), EchoReq{i}, RpcOptions{},
        [&](std::optional<EchoResp> r) {
          ASSERT_TRUE(r.has_value());
          results.push_back(r->value);
        });
  }
  sim.run_until(sim::seconds(1));
  ASSERT_EQ(results.size(), 5u);
  std::sort(results.begin(), results.end());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 2);
  }
  // Each duplicated request was answered from the dedup cache.
  EXPECT_EQ(server.rpc.handler_executions(), 5u);
  EXPECT_EQ(server.rpc.dedup_hits(), 5u);
  // Duplicated responses to completed calls were discarded as stale.
  EXPECT_GE(client.rpc.stale_responses(), 5u);
}

TEST_F(RpcTest, DedupCacheEvictionIsBounded) {
  server.rpc.set_dedup_capacity(4);
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    client.rpc.call<EchoReq, EchoResp>(
        server.id(), EchoReq{i}, RpcOptions{},
        [&](std::optional<EchoResp>) { ++completions; });
    sim.run_until(sim.now() + sim::millis(50));
  }
  EXPECT_EQ(completions, 10);
  EXPECT_EQ(server.rpc.handler_executions(), 10u);
  EXPECT_LE(server.rpc.dedup_size(), 4u);
  // Shrinking the bound evicts immediately.
  server.rpc.set_dedup_capacity(2);
  EXPECT_LE(server.rpc.dedup_size(), 2u);
}

TEST_F(RpcTest, DedupEvictionIsFifo) {
  // Capacity 3, four distinct calls (ids 1-4): call 1 is evicted, 2-4 stay.
  server.rpc.set_dedup_capacity(3);
  for (int i = 0; i < 4; ++i) {
    client.rpc.call<EchoReq, EchoResp>(server.id(), EchoReq{i}, RpcOptions{},
                                       [](std::optional<EchoResp>) {});
    sim.run_until(sim.now() + sim::millis(50));
  }
  ASSERT_EQ(server.rpc.handler_executions(), 4u);
  // Re-send a completed call by id, as a late retry or duplicate would.
  auto resend = [&](std::uint64_t call_id) {
    detail::RpcRequestEnvelope env;
    env.call_id = call_id;
    env.attempt = 2;
    env.body_kind = payload_kind_of<EchoReq>();
    env.body_size = wire_size_of(EchoReq{});
    env.body = NestedPayloadBox{EchoReq{}};
    client.send(server.id(), std::move(env));
    sim.run_until(sim.now() + sim::millis(50));
  };
  resend(4);  // newest: replayed from the cache
  EXPECT_EQ(server.rpc.handler_executions(), 4u);
  EXPECT_EQ(server.rpc.dedup_hits(), 1u);
  resend(1);  // oldest: evicted, so the handler runs again
  EXPECT_EQ(server.rpc.handler_executions(), 5u);
  EXPECT_EQ(server.rpc.dedup_hits(), 1u);
  // Re-executing call 1 cached it again and evicted the next oldest (2).
  resend(1);
  EXPECT_EQ(server.rpc.dedup_hits(), 2u);
  resend(2);
  EXPECT_EQ(server.rpc.handler_executions(), 6u);
  EXPECT_EQ(server.rpc.dedup_size(), 3u);
  // Both re-sent calls had already completed at the client: stale replies.
  EXPECT_EQ(client.rpc.stale_responses(), 4u);
}

TEST_F(RpcTest, LateResponseNeverCompletesTheCallReusingItsSlot) {
  // Call A times out; its done callback issues call B, which takes A's
  // released slot. A's reply lands while B is pending in that slot: it
  // must count as stale, and B must complete with its own reply.
  const NodeId server_id = server.id();
  auto reply_latency = std::make_shared<sim::SimTime>(sim::millis(130));
  network.set_link_model([server_id, reply_latency](NodeId from, NodeId) {
    return LinkQuality{from == server_id ? *reply_latency : sim::millis(10),
                       sim::kSimTimeZero, 0.0};
  });
  sim.schedule_at(sim::millis(105), [&] { *reply_latency = sim::millis(50); });
  const RpcOptions options{.timeout = sim::millis(100), .max_attempts = 1};
  std::optional<RpcResult<EchoResp>> a;
  std::optional<RpcResult<EchoResp>> b;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{1}, options, [&](RpcResult<EchoResp> r) {
        a = std::move(r);
        client.rpc.call_result<EchoReq, EchoResp>(
            server.id(), EchoReq{7}, options,
            [&](RpcResult<EchoResp> rb) { b = std::move(rb); });
      });
  // Timeline: A times out at 100 and B is sent; A's reply arrives at 140,
  // B's at 160.
  sim.run_until(sim::millis(150));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->error, RpcError::kTimeout);
  EXPECT_FALSE(b.has_value()) << "A's late reply must not complete B";
  EXPECT_EQ(client.rpc.stale_responses(), 1u);
  EXPECT_EQ(client.rpc.pending_count(), 1u);
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(b->ok());
  EXPECT_EQ(b->value->value, 14);
  EXPECT_EQ(client.rpc.pending_count(), 0u);
}

TEST_F(RpcTest, DoneMayIssueTheNextCall) {
  // The slot is released before `done` runs, so a completion can chain the
  // next call (which reuses the slot) without disturbing its own.
  std::vector<int> results;
  std::function<void(int)> issue = [&](int i) {
    client.rpc.call_result<EchoReq, EchoResp>(
        server.id(), EchoReq{i}, RpcOptions{}, [&, i](RpcResult<EchoResp> r) {
          EXPECT_EQ(client.rpc.pending_count(), 0u);
          ASSERT_TRUE(r.ok());
          results.push_back(r.value->value);
          if (i < 4) issue(i + 1);
        });
  };
  issue(0);
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(results, (std::vector<int>{0, 2, 4, 6, 8}));
  EXPECT_EQ(client.rpc.pending_count(), 0u);
}

TEST_F(RpcTest, PendingCountReturnsToZeroOnEveryTerminalPath) {
  auto settle = [&](auto issue, RpcError expected) {
    std::optional<RpcError> seen;
    issue([&](RpcError e) { seen = e; });
    EXPECT_EQ(client.rpc.pending_count(), 1u);
    sim.run_until(sim.now() + sim::seconds(1));
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(*seen, expected);
    EXPECT_EQ(client.rpc.pending_count(), 0u);
  };
  auto echo = [&](RpcOptions options) {
    return [&, options](auto record) {
      client.rpc.call_result<EchoReq, EchoResp>(
          server.id(), EchoReq{1}, options,
          [record](RpcResult<EchoResp> r) { record(r.error); });
    };
  };
  settle(echo(RpcOptions{}), RpcError::kNone);
  settle(
      [&](auto record) {
        client.rpc.call_result<Other, EchoResp>(
            server.id(), Other{}, RpcOptions{},
            [record](RpcResult<EchoResp> r) { record(r.error); });
      },
      RpcError::kNoHandler);
  // A server clock running 10 s ahead sheds the request as already
  // expired, and its kExpired reply beats the caller's own timeout.
  network.set_clock_skew(server.id(), sim::seconds(10));
  settle(echo(RpcOptions{.deadline = sim::millis(150)}), RpcError::kExpired);
  network.set_clock_skew(server.id(), sim::kSimTimeZero);
  server.crash();
  settle(echo(RpcOptions{.timeout = sim::millis(50),
                         .max_attempts = 2,
                         .use_breaker = false}),
         RpcError::kTimeout);  // timeout, backoff, retry, timeout
  // With a two-outcome window, this timeout (after the shed) trips it.
  client.rpc.set_breaker(BreakerConfig{.window = 2,
                                       .min_samples = 2,
                                       .failure_threshold = 0.5,
                                       .open_timeout = sim::seconds(10)});
  const RpcOptions once{.timeout = sim::millis(50)};
  settle(echo(once), RpcError::kTimeout);
  ASSERT_EQ(client.rpc.breaker_state(server.id()), BreakerState::kOpen);
  settle(echo(once), RpcError::kCircuitOpen);
}

TEST_F(RpcTest, ServerSeesCallerId) {
  NodeId seen = kInvalidNode;
  server.rpc.serve<Other, EchoResp>(
      [&](NodeId from, const Other&) {
        seen = from;
        return EchoResp{};
      });
  client.rpc.call<Other, EchoResp>(server.id(), Other{}, RpcOptions{},
                                   [](std::optional<EchoResp>) {});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(seen, client.id());
}

// --- Async server handlers (serve_async / RpcResponder) --------------------

TEST_F(RpcTest, AsyncHandlerRespondsAfterDelay) {
  server.rpc.serve_async<EchoReq, EchoResp>(
      [this](NodeId, const EchoReq& req, sim::SimTime,
             RpcResponder<EchoResp> respond) {
        // Simulated service time: the response leaves 80 ms later.
        server.after(sim::millis(80),
                     [req, respond] { respond(EchoResp{req.value + 1}); });
      });
  std::optional<EchoResp> result;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{10}, RpcOptions{.timeout = sim::millis(500)},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::millis(50));
  EXPECT_FALSE(result.has_value()) << "no response before the service delay";
  EXPECT_EQ(server.rpc.in_progress_count(), 1u);
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 11);
  EXPECT_EQ(server.rpc.in_progress_count(), 0u);
}

TEST_F(RpcTest, AsyncHandlerSeesCallerDeadline) {
  sim::SimTime seen = sim::kSimTimeZero;
  server.rpc.serve_async<EchoReq, EchoResp>(
      [&](NodeId, const EchoReq&, sim::SimTime deadline,
          RpcResponder<EchoResp> respond) {
        seen = deadline;
        respond(EchoResp{});
      });
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{}, RpcOptions{.deadline = sim::millis(400)},
      [](std::optional<EchoResp>) {});
  sim.run_until(sim::seconds(1));
  // The envelope carries the caller's absolute deadline (stamped at send).
  EXPECT_EQ(seen, sim::millis(400));
}

TEST_F(RpcTest, AsyncDuplicateWhileInFlightSuppressedNotReExecuted) {
  enable_duplication(1.0);  // every message delivered twice
  int executions = 0;
  server.rpc.serve_async<EchoReq, EchoResp>(
      [&, this](NodeId, const EchoReq& req, sim::SimTime,
                RpcResponder<EchoResp> respond) {
        ++executions;
        server.after(sim::millis(50),
                     [req, respond] { respond(EchoResp{req.value * 2}); });
      });
  std::optional<EchoResp> result;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{21}, RpcOptions{.timeout = sim::millis(500)},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 42);
  EXPECT_EQ(executions, 1) << "the duplicate must not re-run the handler";
  EXPECT_GE(server.rpc.inflight_suppressed(), 1u);
}

TEST_F(RpcTest, AsyncRetryNeverReExecutesHandler) {
  int executions = 0;
  server.rpc.serve_async<EchoReq, EchoResp>(
      [&, this](NodeId, const EchoReq& req, sim::SimTime,
                RpcResponder<EchoResp> respond) {
        ++executions;
        // Service takes 150 ms: longer than the client's per-attempt
        // timeout, so attempt 2 lands either while the execution is in
        // flight (suppressed) or after it cached its response (dedup
        // replay). Both paths must avoid a second execution.
        server.after(sim::millis(150),
                     [req, respond] { respond(EchoResp{req.value + 5}); });
      });
  std::optional<EchoResp> result;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(100), .max_attempts = 3},
      [&](std::optional<EchoResp> r) { result = r; });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 6);
  EXPECT_EQ(executions, 1) << "retry must hit the dedup cache, not re-run";
  EXPECT_GE(server.rpc.dedup_hits() + server.rpc.inflight_suppressed(), 1u);
}

TEST_F(RpcTest, AsyncInFlightRetryAnswersLatestAttempt) {
  // Attempt 1 times out while the handler is still in flight; attempt 2 is
  // suppressed as a duplicate. The eventual response must echo attempt 2 —
  // answering attempt 1 would be discarded as stale and the call would
  // burn its whole budget for nothing.
  server.rpc.serve_async<EchoReq, EchoResp>(
      [this](NodeId, const EchoReq& req, sim::SimTime,
             RpcResponder<EchoResp> respond) {
        server.after(sim::millis(180),
                     [req, respond] { respond(EchoResp{req.value + 9}); });
      });
  std::optional<EchoResp> result;
  int attempts = 0;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{1},
      RpcOptions{.timeout = sim::millis(100),
                 .max_attempts = 3,
                 .backoff_base = sim::millis(10),
                 .backoff_cap = sim::millis(20)},
      [&](RpcResult<EchoResp> r) {
        result = std::move(r.value);
        attempts = r.attempts;
      });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 10);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(server.rpc.handler_executions(), 1u);
  EXPECT_EQ(server.rpc.inflight_suppressed(), 1u);
  EXPECT_EQ(client.rpc.stale_responses(), 0u);
}

TEST_F(RpcTest, AsyncDoubleRespondIsIgnored) {
  RpcResponder<EchoResp> saved;
  server.rpc.serve_async<EchoReq, EchoResp>(
      [&](NodeId, const EchoReq& req, sim::SimTime,
          RpcResponder<EchoResp> respond) {
        saved = respond;
        respond(EchoResp{req.value});  // first answer wins...
      });
  int completions = 0;
  client.rpc.call<EchoReq, EchoResp>(
      server.id(), EchoReq{7}, RpcOptions{},
      [&](std::optional<EchoResp> r) {
        ++completions;
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->value, 7);
      });
  sim.run_until(sim::seconds(1));
  saved(EchoResp{999});  // ...the late duplicate is inert
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(server.rpc.in_progress_count(), 0u);
}

TEST_F(RpcTest, TaintedResponseIsOkButFlagged) {
  // A Byzantine server: every message it sends carries the transport-level
  // taint. The call still completes ok() — lying is not a channel failure —
  // but RpcResult::tainted surfaces the mark so verification-aware callers
  // (the trust layer) can score it, while callers using the plain
  // optional<Resp> overload stay oblivious by design.
  network.set_falsify(server.id(), 1.0);
  std::optional<RpcResult<EchoResp>> result;
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{21}, RpcOptions{},
      [&](RpcResult<EchoResp> r) { result = std::move(r); });
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok());
  EXPECT_TRUE(result->tainted);
  EXPECT_EQ(result->value->value, 42) << "payload itself is untouched";

  network.set_falsify(server.id(), 0.0);
  result.reset();
  client.rpc.call_result<EchoReq, EchoResp>(
      server.id(), EchoReq{5}, RpcOptions{},
      [&](RpcResult<EchoResp> r) { result = std::move(r); });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok());
  EXPECT_FALSE(result->tainted) << "honest responses carry no taint";
}

}  // namespace
}  // namespace riot::net
