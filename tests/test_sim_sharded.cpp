#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace riot::sim {
namespace {

TEST(RunHash, OrderInvariant) {
  RunHash a, b;
  a.mix(1, 2, 3, 4);
  a.mix(5, 6, 7, 8);
  b.mix(5, 6, 7, 8);
  b.mix(1, 2, 3, 4);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.count(), 2u);
}

TEST(RunHash, MergeMatchesSequential) {
  RunHash whole, left, right;
  whole.mix(11, 22);
  whole.mix(33, 44);
  left.mix(33, 44);
  right.mix(11, 22);
  left.merge(right);
  EXPECT_EQ(whole.digest(), left.digest());
}

TEST(RunHash, SensitiveToRecords) {
  RunHash a, b;
  a.mix(1, 2, 3, 4);
  b.mix(1, 2, 3, 5);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(WindowBarrier, CompletionRunsOnceBeforeAnyoneLeaves) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 2000;
  WindowBarrier barrier(kThreads);
  int completed = 0;  // written only by the completion step
  std::atomic<int> mismatches{0};
  auto body = [&] {
    for (int round = 1; round <= kRounds; ++round) {
      barrier.arrive_and_wait([&] { ++completed; });
      if (completed != round) ++mismatches;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < kThreads; ++i) threads.emplace_back(body);
  body();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed, kRounds);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(WindowBarrier, LateArrivalWakesBlockedWaiters) {
  // The last thread arrives long after the spin budget, so the others have
  // stopped spinning and blocked; the release must wake them.
  WindowBarrier barrier(3);
  std::atomic<int> released{0};
  std::vector<std::thread> early;
  for (int i = 0; i < 2; ++i) {
    early.emplace_back([&] {
      barrier.arrive_and_wait([] {});
      ++released;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(released.load(), 0);
  barrier.arrive_and_wait([] {});
  for (std::thread& t : early) t.join();
  EXPECT_EQ(released.load(), 2);
}

TEST(ShardedSimulation, RejectsZeroShards) {
  EXPECT_THROW(ShardedSimulation(0), std::invalid_argument);
}

TEST(ShardedSimulation, SingleShardRunsLocalEvents) {
  ShardedSimulation kernel(1, 42);
  std::vector<int> order;
  kernel.shard(0).schedule_at(millis(20), [&] { order.push_back(2); });
  kernel.shard(0).schedule_at(millis(10), [&] { order.push_back(1); });
  kernel.run_until(millis(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(kernel.executed_events(), 2u);
  EXPECT_EQ(kernel.shard(0).now(), millis(100));
}

TEST(ShardedSimulation, CrossShardPostExecutesOnTarget) {
  ShardedSimulation kernel(2, 7);
  kernel.set_lookahead(millis(1));
  bool landed = false;
  SimTime landed_at = kSimTimeZero;
  kernel.shard(0).schedule_at(millis(5), [&] {
    kernel.post(0, 1, millis(6), /*order_key=*/0, [&] {
      landed = true;
      landed_at = kernel.shard(1).now();
    });
  });
  kernel.run_until(millis(50));
  EXPECT_TRUE(landed);
  EXPECT_EQ(landed_at, millis(6));
  EXPECT_EQ(kernel.posted_events(), 1u);
}

TEST(ShardedSimulation, PostInsideLookaheadWindowThrows) {
  ShardedSimulation kernel(2, 7);
  kernel.set_lookahead(millis(10));
  std::exception_ptr seen;
  kernel.shard(0).schedule_at(millis(5), [&] {
    try {
      kernel.post(0, 1, millis(6), 0, [] {});
    } catch (...) {
      seen = std::current_exception();
    }
  });
  kernel.run_until(millis(50));
  ASSERT_TRUE(seen != nullptr);
  EXPECT_THROW(std::rethrow_exception(seen), std::logic_error);
}

TEST(ShardedSimulation, SameTimestampPostsOrderedByKeyNotArrival) {
  // Shards 1 and 2 both post to shard 0 for the same timestamp; delivery
  // must follow the order key, whatever order the workers ran in.
  ShardedSimulation kernel(3, 9);
  kernel.set_lookahead(millis(1));
  std::vector<std::uint64_t> order;  // written only by shard 0's worker
  for (std::size_t src = 1; src <= 2; ++src) {
    kernel.shard(src).schedule_at(millis(2), [&, src] {
      // Keys chosen so key order (10, 11, 20, 21) interleaves the sources.
      for (std::uint64_t k : {src * 10 + 1, src * 10}) {
        kernel.post(src, 0, millis(10), k, [&order, k] { order.push_back(k); });
      }
    });
  }
  kernel.run_until(millis(50));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{10, 11, 20, 21}));
}

// Deterministic multi-hop workload over entities pinned to shards by id.
// Entity e starts at (e+1) ms and forwards a token to (e * 7 + 3) % kEntities
// for a fixed number of hops, 1 ms per hop — so at any shard count the same
// event set executes, only its parallel placement changes.
struct HopWorkload {
  static constexpr std::size_t kEntities = 64;
  static constexpr int kHops = 12;

  explicit HopWorkload(ShardedSimulation& kernel) : kernel_(kernel) {
    kernel_.set_lookahead(millis(1));
    for (std::size_t e = 0; e < kEntities; ++e) {
      const std::size_t shard = e % kernel_.shard_count();
      kernel_.shard(shard).schedule_at(
          millis(static_cast<std::int64_t>(e) + 1),
          [this, e] { hop(e, kHops); });
    }
  }

  void hop(std::size_t entity, int remaining) {
    const std::size_t shard = entity % kernel_.shard_count();
    hashes_[shard].mix(
        static_cast<std::uint64_t>(kernel_.shard(shard).now().count()), entity,
        static_cast<std::uint64_t>(remaining));
    if (remaining == 0) return;
    const std::size_t next = (entity * 7 + 3) % kEntities;
    const std::size_t next_shard = next % kernel_.shard_count();
    const SimTime at = kernel_.shard(shard).now() + millis(1);
    kernel_.post(shard, next_shard, at, /*order_key=*/entity,
                 [this, next, remaining] { hop(next, remaining - 1); });
  }

  [[nodiscard]] std::uint64_t digest() const {
    RunHash merged;
    for (const RunHash& h : hashes_) merged.merge(h);
    return merged.digest();
  }

  ShardedSimulation& kernel_;
  RunHash hashes_[8]{};
};

TEST(ShardedSimulation, DeterminismAcrossShardCounts) {
  for (std::uint64_t seed : {1ULL, 99ULL}) {
    std::uint64_t baseline_events = 0;
    std::uint64_t baseline_digest = 0;
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      ShardedSimulation kernel(shards, seed);
      HopWorkload workload(kernel);
      kernel.run_until(millis(500));
      if (shards == 1) {
        baseline_events = kernel.executed_events();
        baseline_digest = workload.digest();
        EXPECT_EQ(baseline_events,
                  HopWorkload::kEntities * (HopWorkload::kHops + 1));
      } else {
        EXPECT_EQ(kernel.executed_events(), baseline_events)
            << "shards=" << shards << " seed=" << seed;
        EXPECT_EQ(workload.digest(), baseline_digest)
            << "shards=" << shards << " seed=" << seed;
      }
    }
  }
}

TEST(ShardedSimulation, RunIsBitIdenticalForSameShardCount) {
  auto run = [] {
    ShardedSimulation kernel(4, 1234);
    HopWorkload workload(kernel);
    kernel.run_until(millis(500));
    return std::pair{kernel.executed_events(), workload.digest()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ShardedSimulation, ZeroLookaheadSameTimestampRoundsDrain) {
  // With lookahead 0, a post at the *current* timestamp is legal and must
  // execute at that same timestamp via extra same-time exchange rounds.
  ShardedSimulation kernel(2, 5);
  kernel.set_lookahead(kSimTimeZero);
  std::vector<int> chain;  // each element written by one shard, in sequence
  kernel.shard(0).schedule_at(millis(3), [&] {
    chain.push_back(0);
    kernel.post(0, 1, millis(3), 0, [&] {
      chain.push_back(1);
      kernel.post(1, 0, millis(3), 0, [&] { chain.push_back(2); });
    });
  });
  kernel.run_until(millis(10));
  EXPECT_EQ(chain, (std::vector<int>{0, 1, 2}));
  // Three same-timestamp rounds plus the final quiescence check.
  EXPECT_GE(kernel.windows(), 3u);
  EXPECT_EQ(kernel.shard(0).now(), millis(10));
  EXPECT_EQ(kernel.shard(1).now(), millis(10));
}

TEST(ShardedSimulation, DeadlineStopsAllShards) {
  ShardedSimulation kernel(2, 3);
  kernel.set_lookahead(millis(1));
  std::atomic<int> fired{0};
  kernel.shard(0).schedule_at(millis(5), [&] { ++fired; });
  kernel.shard(1).schedule_at(millis(10), [&] { ++fired; });  // == deadline
  kernel.shard(0).schedule_at(millis(11), [&] { ++fired; });  // past deadline
  kernel.run_until(millis(10));
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(kernel.pending_events(), 1u);
  EXPECT_EQ(kernel.shard(0).now(), millis(10));
}

TEST(ShardedSimulation, CrossShardWorkCarriesIntoTheNextRun) {
  ShardedSimulation kernel(3, 4);
  kernel.set_lookahead(millis(1));
  SimTime at1 = kSimTimeZero;  // written by shard 1
  SimTime at0 = kSimTimeZero;  // written by shard 0
  // Sent inside the first run, due after its deadline.
  kernel.shard(0).schedule_at(millis(9), [&] {
    kernel.post(0, 1, millis(15), 0, [&] { at1 = kernel.shard(1).now(); });
  });
  kernel.run_until(millis(10));
  EXPECT_EQ(kernel.executed_events(), 1u);
  EXPECT_EQ(kernel.pending_events(), 1u);  // already on shard 1's queue
  // Posted between runs, from shard 2's side: no window is open, so it
  // goes straight onto shard 0's queue.
  kernel.post(2, 0, millis(12), 0, [&] { at0 = kernel.shard(0).now(); });
  EXPECT_EQ(kernel.pending_events(), 2u);
  kernel.run_until(millis(20));
  EXPECT_EQ(at1, millis(15));
  EXPECT_EQ(at0, millis(12));
  EXPECT_EQ(kernel.executed_events(), 3u);
  kernel.run_until(millis(30));  // nothing left: no window opens
  EXPECT_EQ(kernel.windows(), 0u);
  EXPECT_EQ(kernel.shard(2).now(), millis(30));
}

TEST(ShardedSimulation, PostsStrandedByAFailedRunLandInTheNextRun) {
  ShardedSimulation kernel(3, 6);
  kernel.set_lookahead(millis(1));
  SimTime landed = kSimTimeZero;  // written by shard 1
  kernel.shard(0).schedule_at(millis(5), [&] {
    kernel.post(0, 1, millis(8), 0, [&] { landed = kernel.shard(1).now(); });
  });
  kernel.shard(2).schedule_at(millis(5), [] {
    throw std::runtime_error("boom on shard 2");
  });
  EXPECT_THROW(kernel.run_until(millis(20)), std::runtime_error);
  EXPECT_EQ(landed, kSimTimeZero);
  kernel.run_until(millis(20));
  EXPECT_EQ(landed, millis(8));
}

TEST(ShardedSimulation, HandlerExceptionPropagatesToCaller) {
  ShardedSimulation kernel(4, 2);
  kernel.set_lookahead(millis(1));
  kernel.shard(2).schedule_at(millis(5), [] {
    throw std::runtime_error("boom on shard 2");
  });
  for (std::size_t s = 0; s < 4; ++s) {
    kernel.shard(s).schedule_every(millis(1), [] {});
  }
  EXPECT_THROW(kernel.run_until(millis(100)), std::runtime_error);
}

TEST(ShardedSimulation, PeriodicEventsAcrossWindows) {
  ShardedSimulation kernel(2, 8);
  kernel.set_lookahead(millis(1));
  std::uint64_t ticks0 = 0, ticks1 = 0;
  kernel.shard(0).schedule_every(millis(1), [&] { ++ticks0; });
  kernel.shard(1).schedule_every(millis(2), [&] { ++ticks1; });
  kernel.run_until(millis(20));
  EXPECT_EQ(ticks0, 20u);
  EXPECT_EQ(ticks1, 10u);
  EXPECT_GT(kernel.windows(), 1u);
}

}  // namespace
}  // namespace riot::sim
