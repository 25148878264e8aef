#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/trace.hpp"

namespace riot::sim {

// The kernel's contract on a std::priority_queue over (at, seq): one-shots
// retire before they run, periodics re-arm (taking the next seq) before
// they run, cancellation marks the event dead and its queued entry is
// skipped when it surfaces. The execution order Simulation's heap is
// checked against.
namespace reference {

class Kernel {
 public:
  using Id = std::uint64_t;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Id current_event() const { return current_; }

  Id schedule_at(SimTime at, std::function<void()> fn) {
    return add(at, kSimTimeZero, std::move(fn));
  }
  Id schedule_every(SimTime initial_delay, SimTime period,
                    std::function<void()> fn) {
    return add(now_ + initial_delay, period, std::move(fn));
  }
  bool cancel(Id id) {
    const auto it = events_.find(id);
    if (it == events_.end() || !it->second.live) return false;
    it->second.live = false;
    return true;
  }
  void run_until(SimTime deadline) {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      Event& event = events_.at(top.id);
      if (!event.live) {
        queue_.pop();
        continue;
      }
      if (top.at > deadline) break;
      queue_.pop();
      now_ = top.at;
      current_ = top.id;
      if (event.period > kSimTimeZero) {
        queue_.push(Entry{top.at + event.period, next_seq_++, top.id});
        const std::function<void()> fn = event.fn;
        fn();
      } else {
        event.live = false;
        const std::function<void()> fn = std::move(event.fn);
        fn();
      }
    }
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Id id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
    }
  };
  struct Event {
    std::function<void()> fn;
    SimTime period;
    bool live;
  };

  Id add(SimTime at, SimTime period, std::function<void()> fn) {
    const Id id = next_id_++;
    events_.emplace(id, Event{std::move(fn), period, true});
    queue_.push(Entry{at, next_seq_++, id});
    return id;
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_map<Id, Event> events_;
  std::uint64_t next_seq_ = 0;
  Id next_id_ = 1;
  Id current_ = 0;
  SimTime now_ = kSimTimeZero;
};

}  // namespace reference

namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), kSimTimeZero);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, ExecutesInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(millis(30), [&] { order.push_back(3); });
  sim.schedule_at(millis(10), [&] { order.push_back(1); });
  sim.schedule_at(millis(20), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(30));
}

TEST(Simulation, FifoAmongEqualTimestamps) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime fired = kSimTimeZero;
  sim.schedule_at(millis(10), [&] {
    sim.schedule_after(millis(5), [&] { fired = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_EQ(fired, millis(15));
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(millis(10), [] {});
  sim.run_to_completion();
  EXPECT_THROW(sim.schedule_at(millis(5), [] {}), std::invalid_argument);
}

TEST(Simulation, EmptyCallbackThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(millis(1), std::function<void()>{}),
               std::invalid_argument);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.schedule_at(millis(10), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_to_completion();
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelUnknownReturnsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulation, CancelAfterRunReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_at(millis(1), [] {});
  sim.run_to_completion();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, PeriodicFiresRepeatedly) {
  Simulation sim;
  int fires = 0;
  sim.schedule_every(millis(10), [&] { ++fires; });
  sim.run_until(millis(95));
  EXPECT_EQ(fires, 9);
  EXPECT_EQ(sim.now(), millis(95));
}

TEST(Simulation, PeriodicWithInitialDelay) {
  Simulation sim;
  std::vector<SimTime> at;
  sim.schedule_every(millis(5), millis(10), [&] { at.push_back(sim.now()); });
  sim.run_until(millis(30));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], millis(5));
  EXPECT_EQ(at[1], millis(15));
  EXPECT_EQ(at[2], millis(25));
}

TEST(Simulation, PeriodicCancelStops) {
  Simulation sim;
  int fires = 0;
  const EventId id = sim.schedule_every(millis(10), [&] { ++fires; });
  sim.schedule_at(millis(35), [&] { sim.cancel(id); });
  sim.run_until(millis(100));
  EXPECT_EQ(fires, 3);
}

TEST(Simulation, PeriodicCanCancelItself) {
  Simulation sim;
  int fires = 0;
  EventId id = kInvalidEventId;
  id = sim.schedule_every(millis(10), [&] {
    if (++fires == 2) sim.cancel(id);
  });
  sim.run_until(millis(100));
  EXPECT_EQ(fires, 2);
}

TEST(Simulation, ZeroPeriodThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_every(kSimTimeZero, [] {}),
               std::invalid_argument);
}

TEST(Simulation, RunUntilAdvancesClockToDeadline) {
  Simulation sim;
  sim.run_until(seconds(5));
  EXPECT_EQ(sim.now(), seconds(5));
}

TEST(Simulation, RunUntilLeavesFutureEvents) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(seconds(10), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(seconds(10));
  EXPECT_TRUE(ran);
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int count = 0;
  sim.schedule_every(millis(1), [&] {
    if (++count == 5) sim.request_stop();
  });
  sim.run_until(seconds(1));
  EXPECT_EQ(count, 5);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(millis(1), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsScheduledDuringExecutionRun) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(millis(10), [&] {
    order.push_back(1);
    sim.schedule_at(millis(10), [&] { order.push_back(2); });  // same time
  });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, ExecutedEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(millis(i + 1), [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulation, SeedIsStored) {
  Simulation sim(777);
  EXPECT_EQ(sim.seed(), 777u);
}

// --- run_until deadline contract --------------------------------------------

TEST(Simulation, RunUntilWithCancelledHeadNeverOvershootsDeadline) {
  // Regression: a cancelled tombstone at the head of the queue used to
  // satisfy the `top().at <= deadline` peek, after which step() skipped it
  // and executed the *next* event — even one past the deadline.
  Simulation sim;
  bool late_ran = false;
  const EventId head = sim.schedule_at(millis(10), [] {});
  sim.schedule_at(millis(40), [&] { late_ran = true; });
  ASSERT_TRUE(sim.cancel(head));
  sim.run_until(millis(20));
  EXPECT_FALSE(late_ran) << "event at 40 ms ran despite a 20 ms deadline";
  EXPECT_EQ(sim.now(), millis(20)) << "clock lands exactly on the deadline";
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(millis(40));
  EXPECT_TRUE(late_ran);
}

TEST(Simulation, RunUntilDrainsManyCancelledHeads) {
  Simulation sim;
  int ran = 0;
  std::vector<EventId> doomed;
  for (int i = 1; i <= 50; ++i) {
    doomed.push_back(sim.schedule_at(millis(i), [&] { ++ran; }));
  }
  sim.schedule_at(millis(100), [&] { ++ran; });
  for (const EventId id : doomed) ASSERT_TRUE(sim.cancel(id));
  sim.run_until(millis(60));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.now(), millis(60));
}

TEST(Simulation, RunUntilStopLeavesClockAtLastEvent) {
  // Contract: on request_stop() the clock stays at the last executed event
  // so callers observe when the run actually halted — it must NOT jump to
  // the deadline and skew downstream (MAPE, chaos) timing.
  Simulation sim;
  int count = 0;
  sim.schedule_every(millis(1), [&] {
    if (++count == 5) sim.request_stop();
  });
  sim.run_until(seconds(1));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), millis(5)) << "clock stays at the stopping event";
  sim.run_until(seconds(1));  // resumable: picks up where it stopped
  EXPECT_GT(count, 5);
  EXPECT_EQ(sim.now(), seconds(1));
}

// --- cancel-semantics matrix for the slab event pool ------------------------

TEST(Simulation, CancelSecondTimeReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_at(millis(10), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, CancelInsideOwnCallbackReturnsFalse) {
  Simulation sim;
  EventId id = kInvalidEventId;
  bool cancel_result = true;
  id = sim.schedule_at(millis(10), [&] { cancel_result = sim.cancel(id); });
  sim.run_to_completion();
  EXPECT_FALSE(cancel_result) << "an event cannot cancel itself mid-fire";
}

TEST(Simulation, SlotReuseNeverResurrectsOldId) {
  // Slots recycle, ids must not: cancelling a stale id after its slot was
  // reused by a newer event must not touch the newer event.
  Simulation sim;
  bool second_ran = false;
  const EventId first = sim.schedule_at(millis(10), [] {});
  ASSERT_TRUE(sim.cancel(first));
  const EventId second = sim.schedule_at(millis(10), [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first)) << "stale id must stay dead";
  sim.run_to_completion();
  EXPECT_TRUE(second_ran);
}

TEST(Simulation, IdsNeverReusedAcrossAMillionEvents) {
  Simulation sim;
  std::unordered_set<EventId> seen;
  seen.reserve(2'200'000);
  // Alternate cancel-before-fire and fire paths so slots recycle through
  // both retirement branches; every id handed out must be globally fresh.
  for (int i = 0; i < 500'000; ++i) {
    const EventId doomed = sim.schedule_after(millis(2), [] {});
    const EventId kept = sim.schedule_after(millis(1), [] {});
    EXPECT_TRUE(seen.insert(doomed).second) << "id reused at iter " << i;
    EXPECT_TRUE(seen.insert(kept).second) << "id reused at iter " << i;
    sim.cancel(doomed);
    sim.step();  // fires `kept`, recycling its slot
  }
  EXPECT_EQ(seen.size(), 1'000'000u);
}

TEST(Simulation, PendingEventsTracksScheduleCancelAndFire) {
  Simulation sim;
  const EventId a = sim.schedule_at(millis(1), [] {});
  const EventId periodic = sim.schedule_every(millis(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(millis(10));
  EXPECT_EQ(sim.pending_events(), 1u) << "armed periodic stays pending";
  sim.cancel(periodic);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, PeriodicCancelledFromAnotherEventSameTimestamp) {
  // FIFO tie-break: the canceller was scheduled first, so at the shared
  // t=10ms timestamp it runs before the periodic's first fire — and the
  // fire must then be a stale tombstone, not an execution.
  Simulation sim;
  int fires = 0;
  EventId id = kInvalidEventId;
  sim.schedule_at(millis(10), [&] { sim.cancel(id); });
  id = sim.schedule_every(millis(10), [&] { ++fires; });
  sim.run_until(millis(50));
  EXPECT_EQ(fires, 0);
}

// --- component interning ----------------------------------------------------

TEST(Simulation, ComponentInterningIsStableAndDeduplicated) {
  Simulation sim;
  EXPECT_EQ(sim.component_id("sim"), kAnonymousComponent);
  const ComponentId swim = sim.component_id("swim");
  const ComponentId raft = sim.component_id("raft");
  EXPECT_NE(swim, raft);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sim.component_id("swim"), swim);
  }
  EXPECT_EQ(sim.component_count(), 3u);
  EXPECT_EQ(sim.component_name(swim), "swim");
}

TEST(Simulation, PeriodicSurvivesThrowingHandler) {
  // Regression: step() moves the periodic closure out of its slab slot for
  // the duration of the call. If the handler throws, the unwind must put
  // the closure back — the re-armed queue entry survives the exception, and
  // without the restore its next firing hit a moved-out std::function.
  Simulation sim;
  int fired = 0;
  sim.schedule_every(millis(10), [&] {
    ++fired;
    if (fired == 1) throw std::runtime_error("first tick fails");
  });
  EXPECT_THROW(sim.run_until(millis(35)), std::runtime_error);
  EXPECT_EQ(fired, 1);
  // The run resumes past the failed tick; firings at 20 ms and 30 ms work.
  sim.run_until(millis(35));
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, PeriodicCancelledDuringThrowStaysCancelled) {
  Simulation sim;
  int fired = 0;
  EventId id = 0;
  id = sim.schedule_every(millis(10), [&] {
    ++fired;
    sim.cancel(id);  // retires the slot before the throw unwinds
    throw std::runtime_error("tick fails after self-cancel");
  });
  EXPECT_THROW(sim.run_until(millis(50)), std::runtime_error);
  sim.run_until(millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, CancelStormKeepsQueueBounded) {
  // Heavy cancel/re-arm churn (RPC retry timers pushed ever further out)
  // must not accumulate tombstones: the queue compacts once stale entries
  // outnumber live ones, so heap memory stays proportional to live events.
  Simulation sim;
  constexpr std::size_t kTimers = 1000;
  std::vector<EventId> timers(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers[i] = sim.schedule_at(seconds(10), [] {});
  }
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      sim.cancel(timers[i]);
      timers[i] = sim.schedule_at(
          seconds(10 + round), [] {});  // re-arm further out, never fires
    }
    // Live count is constant; entries may transiently include tombstones
    // but never more than ~half the heap plus the fresh pushes.
    EXPECT_EQ(sim.pending_events(), kTimers);
    EXPECT_LE(sim.queued_entries(), 2 * kTimers + 1);
  }
  sim.run_until(seconds(5));
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.pending_events(), kTimers);
}

// Random schedule / cancel / periodic / self-cancel churn driven by its
// own generator. The draws are taken inside the callbacks, so two kernels
// stay in step exactly as long as they execute the same events in the same
// order; the log records every execution and every cancel's result.
template <typename Kernel>
struct ChurnScript {
  using Id = decltype(std::declval<Kernel&>().current_event());

  ChurnScript(Kernel& kernel, std::uint64_t seed) : k(kernel), rng(seed) {}

  static constexpr int kMaxEvents = 4000;  // keeps the population finite

  void spawn() {
    const int label = next_label++;
    // Millisecond granularity makes equal timestamps (FIFO ties) common.
    const SimTime delay = millis(static_cast<std::int64_t>(rng.below(20)));
    if (rng.chance(0.2)) {
      const SimTime period =
          millis(static_cast<std::int64_t>(1 + rng.below(10)));
      ids.push_back(k.schedule_every(delay, period, [this, label] {
        fire(label);
        if (rng.chance(0.1)) log.push_back({-2, k.cancel(k.current_event())});
      }));
    } else {
      ids.push_back(
          k.schedule_at(k.now() + delay, [this, label] { fire(label); }));
    }
  }

  void fire(int label) {
    log.push_back({label, k.now().count()});
    if (next_label < kMaxEvents && rng.chance(0.5)) spawn();
    if (next_label < kMaxEvents && rng.chance(0.4)) spawn();
    // Now and then a storm of cancels among the newest events, which are
    // mostly still pending: that is what makes tombstones pile up.
    const int cancels = rng.chance(0.02) ? 150 : rng.chance(0.5) ? 1 : 0;
    for (int c = 0; c < cancels && !ids.empty(); ++c) {
      const std::size_t back = std::min<std::size_t>(ids.size(), 300);
      const bool cancelled =
          k.cancel(ids[ids.size() - 1 - rng.below(back)]);
      log.push_back({-1, cancelled});
      if constexpr (std::is_same_v<Kernel, Simulation>) {
        // Right after a cancel, compaction has held the heap to twice the
        // live events (it does not run below 64 entries).
        EXPECT_LE(k.queued_entries(),
                  std::max<std::size_t>(2 * k.pending_events(), 63));
        // A cancel leaves a tombstone unless it compacted the heap.
        if (cancelled && k.queued_entries() == k.pending_events()) {
          ++compactions;
        }
      }
    }
  }

  Kernel& k;
  Rng rng;
  std::vector<Id> ids;
  std::vector<std::pair<int, std::int64_t>> log;
  int next_label = 0;
  int compactions = 0;
};

TEST(Simulation, ExecutionOrderMatchesReferenceQueueUnderChurn) {
  int compactions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Simulation sim;
    ChurnScript<Simulation> actual(sim, seed);
    reference::Kernel ref;
    ChurnScript<reference::Kernel> expected(ref, seed);
    for (int i = 0; i < 400; ++i) {
      actual.spawn();
      expected.spawn();
    }
    for (const std::int64_t until : {50, 51, 400, 1000}) {
      sim.run_until(millis(until));
      ref.run_until(millis(until));
    }
    ASSERT_GT(actual.log.size(), 10'000u);
    ASSERT_EQ(actual.log.size(), expected.log.size()) << "seed " << seed;
    EXPECT_TRUE(actual.log == expected.log) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now());
    compactions += actual.compactions;
  }
  EXPECT_GT(compactions, 8);
}

TEST(Simulation, RunBeforeStopsStrictlyBeforeEnd) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(millis(5), [&] { order.push_back(5); });
  sim.schedule_at(millis(10), [&] { order.push_back(10); });
  sim.schedule_at(millis(15), [&] { order.push_back(15); });
  sim.run_before(millis(10));
  EXPECT_EQ(order, (std::vector<int>{5}));
  // The clock stays at the last executed event — not pushed to `end` — so
  // a same-timestamp schedule_at(10ms) from outside is still legal.
  EXPECT_EQ(sim.now(), millis(5));
  EXPECT_EQ(sim.next_event_time(), millis(10));
  sim.schedule_at(millis(10), [&] { order.push_back(11); });
  sim.run_before(millis(11));
  EXPECT_EQ(order, (std::vector<int>{5, 10, 11}));
  sim.run_before(kSimTimeMax);
  EXPECT_EQ(order.back(), 15);
  EXPECT_EQ(sim.next_event_time(), kSimTimeMax);
}

TEST(Simulation, NextEventTimeSkipsTombstones) {
  Simulation sim;
  const EventId early = sim.schedule_at(millis(1), [] {});
  sim.schedule_at(millis(7), [] {});
  sim.cancel(early);
  EXPECT_EQ(sim.next_event_time(), millis(7));
}

// --- determinism across the slab rewrite ------------------------------------

namespace {

// A seed-driven workload touching every kernel path: periodics, one-shots,
// cancellations, same-timestamp FIFO ties, and rng draws; every firing
// logs to the TraceLog so two runs can be compared event for event.
void run_traced_workload(Simulation& sim, TraceLog& trace) {
  trace.bind_clock(sim);
  auto& rng = sim.rng();
  std::vector<EventId> cancellable;
  for (int i = 0; i < 20; ++i) {
    const auto period = millis(static_cast<std::int64_t>(5 + rng.below(20)));
    sim.schedule_every(period, [&sim, &trace, &rng, &cancellable, i] {
      trace.event("wl", "tick").node(static_cast<std::uint32_t>(i))
          .kv("draw", rng.below(1000));
      if (rng.chance(0.3)) {
        cancellable.push_back(sim.schedule_after(
            millis(static_cast<std::int64_t>(1 + rng.below(10))),
            [&trace, i] {
              trace.event("wl", "oneshot").node(static_cast<std::uint32_t>(i));
            }));
      }
      if (!cancellable.empty() && rng.chance(0.5)) {
        sim.cancel(cancellable.back());
        cancellable.pop_back();
      }
    });
  }
  sim.run_until(seconds(2));
}

}  // namespace

TEST(Simulation, TraceIsByteIdenticalForSameSeed) {
  Simulation first(1234);
  TraceLog first_trace;
  run_traced_workload(first, first_trace);

  Simulation second(1234);
  TraceLog second_trace;
  run_traced_workload(second, second_trace);

  ASSERT_FALSE(first_trace.events().empty());
  ASSERT_EQ(first_trace.events().size(), second_trace.events().size());
  for (std::size_t i = 0; i < first_trace.events().size(); ++i) {
    const TraceEvent& a = first_trace.events()[i];
    const TraceEvent& b = second_trace.events()[i];
    EXPECT_EQ(a.at, b.at) << "event " << i;
    EXPECT_EQ(a.component, b.component) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.detail, b.detail) << "event " << i;
  }
  EXPECT_EQ(first.executed_events(), second.executed_events());
}

}  // namespace
}  // namespace riot::sim
