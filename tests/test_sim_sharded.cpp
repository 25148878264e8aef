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

TEST(ShardedSimulation, WorkLeftByAFailedExchangeRunsOnTimeNextRun) {
  // A transport reduced to the kernel's cross-shard protocol, as the
  // sharded network fabric uses it: buffer on write_side(), report the
  // time through note_outbound(), schedule on the destination from the
  // exchange hook. Its first drain of a buffered item throws, so the run
  // stops with the item still buffered, and two side flips later its side
  // is the write side again. The next run must take that side in before it
  // plans its first window: the item then runs at 6 ms and its onward send
  // reaches shard 0 at 7 ms. A late drain lets shard 0 run its own 7.5 ms
  // event first, and the onward delivery is then scheduled in its past.
  ShardedSimulation kernel(2, 11);
  kernel.set_lookahead(millis(1));
  std::vector<SimTime> boxes[2][2];  // [side][destination shard]
  bool failed = false;
  SimTime item_at = kSimTimeZero;    // written by shard 1
  SimTime onward_at = kSimTimeZero;  // written by shard 0
  const auto buffer = [&](std::size_t src, std::size_t dst, SimTime at) {
    boxes[kernel.write_side()][dst].push_back(at);
    kernel.note_outbound(src, at);
  };
  kernel.set_exchange([&](std::size_t dst, std::size_t side) {
    std::vector<SimTime>& box = boxes[side][dst];
    if (box.empty()) return;
    if (!failed) {
      failed = true;
      throw std::runtime_error("exchange failed");
    }
    for (const SimTime at : box) {
      if (dst == 1) {
        kernel.shard(1).schedule_at(at, [&] {
          item_at = kernel.shard(1).now();
          buffer(1, 0, item_at + millis(1));
        });
      } else {
        kernel.shard(0).schedule_at(
            at, [&] { onward_at = kernel.shard(0).now(); });
      }
    }
    box.clear();
  });
  kernel.shard(0).schedule_at(millis(5), [&] { buffer(0, 1, millis(6)); });
  kernel.shard(0).schedule_at(millis(7) + micros(500), [] {});
  EXPECT_THROW(kernel.run_until(millis(20)), std::runtime_error);
  EXPECT_EQ(boxes[kernel.write_side()][1].size(), 1u);
  EXPECT_EQ(item_at, kSimTimeZero);
  EXPECT_NO_THROW(kernel.run_until(millis(20)));
  EXPECT_EQ(item_at, millis(6));
  EXPECT_EQ(onward_at, millis(7));
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
