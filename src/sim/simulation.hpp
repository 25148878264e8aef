// Discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a priority queue of scheduled
// callbacks. Everything in riot — protocol timers, message deliveries,
// fault injections, workload arrivals — is an event on this queue, executed
// strictly in timestamp order (FIFO among equal timestamps), which makes
// runs fully deterministic for a given seed and configuration.
//
// Storage is a slab of generation-tagged event slots (see DESIGN.md §9):
// the priority queue holds 24-byte POD entries referencing slots, callbacks
// live in the slab as inline callables (no heap cell for closures up to
// kInlineCallableBytes), and cancellation is an O(1) generation bump — no
// per-event hash-set bookkeeping anywhere on the hot path. EventIds encode
// (generation << 32 | slot), so ids are never reused within a Simulation
// even though slots are.
//
// Events may carry a component tag (an interned ComponentId resolved once
// at wiring time); an installed Profiler then receives per-event component
// attribution and handler wall latency, powering obs::SimProfiler's
// per-component breakdowns without any cost when no profiler is set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace riot::sim {

/// Identifies a scheduled event so it can be cancelled. Ids are never
/// reused within a Simulation (slots are; the generation tag in the high
/// 32 bits disambiguates).
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Interned component tag for event attribution. 0 is the anonymous
/// component ("sim").
using ComponentId = std::uint16_t;
constexpr ComponentId kAnonymousComponent = 0;

class Simulation {
 public:
  /// What an event slot holds. Any callable converts implicitly; captures
  /// up to kInlineCallableBytes that move without throwing are stored in
  /// the slot itself, larger ones cost one heap cell.
  using Callback = InlineFunction<void()>;

  explicit Simulation(std::uint64_t seed = 1)
      : rng_(seed), seed_(seed) {
    component_names_.emplace_back("sim");
    component_index_.emplace("sim", kAnonymousComponent);
  }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Root generator; modules should take splits, not share this directly.
  Rng& rng() { return rng_; }

  /// Intern a component name, returning a stable id for event tagging.
  /// O(1) amortized; resolve once at wiring time, not per event.
  ComponentId component_id(std::string_view name);
  [[nodiscard]] std::string_view component_name(ComponentId id) const;
  [[nodiscard]] std::size_t component_count() const {
    return component_names_.size();
  }

  /// Receives one callback per executed event: the event's component, the
  /// sim time it ran at, and the handler's wall-clock cost. Implemented by
  /// obs::SimProfiler; install via set_profiler.
  class Profiler {
   public:
    virtual ~Profiler() = default;
    virtual void on_event(ComponentId component, SimTime at,
                          double wall_micros) = 0;
  };
  /// Install (or with nullptr remove) the event-loop profiler.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

  /// Schedule `fn` at absolute time `at` (>= now). Returns a cancellable id.
  EventId schedule_at(SimTime at, Callback fn,
                      ComponentId component = kAnonymousComponent);

  /// Schedule `fn` after a delay from now.
  EventId schedule_after(SimTime delay, Callback fn,
                         ComponentId component = kAnonymousComponent) {
    return schedule_at(now_ + delay, std::move(fn), component);
  }

  /// Schedule `fn` every `period`, first firing after `period` (or after
  /// `initial_delay` when given). The callback may cancel itself via the
  /// returned id. Periodic events keep firing until cancelled or the run
  /// ends.
  EventId schedule_every(SimTime period, Callback fn,
                         ComponentId component = kAnonymousComponent);
  EventId schedule_every(SimTime initial_delay, SimTime period, Callback fn,
                         ComponentId component = kAnonymousComponent);

  /// Id of the event whose callback is running (between events: the last
  /// one that ran). Lets a periodic callback cancel itself without
  /// capturing its own id. A one-shot's id is already retired while it
  /// runs, so cancelling it returns false.
  [[nodiscard]] EventId current_event() const { return current_; }

  /// Cancel a pending (or periodic) event. Returns false if it already ran
  /// or was never scheduled. O(1) amortized: retires the slot, leaving any
  /// queued entry as a stale tombstone that the run loop discards on pop.
  /// When tombstones outnumber live entries (heavy cancel churn between
  /// pops — RPC retry timers re-armed far in the future), the heap is
  /// compacted in place so queue memory stays proportional to live events.
  bool cancel(EventId id);

  /// Execute the next event. Returns false when the queue is exhausted.
  bool step();

  /// Run until the queue drains or the clock passes `deadline`. Events
  /// stamped exactly at `deadline` run. On normal completion the clock is
  /// left at `deadline`; if request_stop() fired mid-run the clock stays
  /// at the last executed event so callers observe when the run actually
  /// stopped. No event past `deadline` ever executes — cancelled
  /// tombstones at the head of the queue are drained before the deadline
  /// check, never skipped over it.
  void run_until(SimTime deadline);

  /// Run for a duration from the current clock.
  void run_for(SimTime duration) { run_until(now_ + duration); }

  /// Execute every event strictly before `end`, leaving the clock at the
  /// last executed event (never advanced to `end`). The window primitive of
  /// the sharded kernel: a shard drains its window [T, T+lookahead), then
  /// cross-shard deliveries for later windows are enqueued — which is legal
  /// exactly because the clock was not pushed past the window.
  void run_before(SimTime end);

  /// Timestamp of the next live event (tombstones are drained), or
  /// kSimTimeMax when the queue is empty. Used by the sharded barrier to
  /// compute the next global window.
  [[nodiscard]] SimTime next_event_time();

  /// Run until the queue is empty. Intended for tests; most experiments
  /// have periodic events and must use run_until.
  void run_to_completion();

  /// Request that run_until/run_to_completion return after the current
  /// event finishes.
  void request_stop() { stop_requested_ = true; }

  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Heap entries, live + cancelled tombstones. Bounded at ~2x live by the
  /// compaction in cancel(); exposed so tests can assert the bound.
  [[nodiscard]] std::size_t queued_entries() const { return queue_.size(); }

 private:
  // What the priority queue holds: a POD ticket referencing a slab slot.
  // Heap sift operations move 24 bytes, never a closure.
  struct QueuedEvent {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  enum class SlotState : std::uint8_t { kFree, kOneShot, kPeriodic };

  // One slab cell. `generation` starts at 1 and is bumped every time the
  // slot is retired (fired one-shot or cancelled), invalidating both the
  // outstanding EventId and any queue entry still carrying the old tag.
  struct EventSlot {
    Callback fn;
    SimTime period = kSimTimeZero;  // periodic re-arm interval
    std::uint32_t generation = 1;
    ComponentId component = kAnonymousComponent;
    SlotState state = SlotState::kFree;
  };

  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);
  void invoke(Callback& fn, ComponentId component, SimTime at);

  // Explicit binary heap over queue_ (std::push_heap/pop_heap with Later)
  // instead of std::priority_queue: compaction needs access to the
  // underlying container to erase tombstones in place.
  void queue_push(const QueuedEvent& qe) {
    queue_.push_back(qe);
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }
  void queue_pop() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
  [[nodiscard]] bool entry_stale(const QueuedEvent& qe) const {
    return slots_[qe.slot].generation != qe.gen;
  }
  /// Pop tombstones off the heap head; the queue front afterwards is the
  /// next live event (or the queue is empty).
  void drain_stale_head() {
    while (!queue_.empty() && entry_stale(queue_.front())) {
      queue_pop();
      --tombstones_;
    }
  }
  /// Erase every tombstone and re-heapify. O(n), amortized O(1) per cancel
  /// because it only runs when tombstones exceed half the heap.
  void compact_queue();

  // Transparent lookup so component_id(string_view) never allocates on the
  // hit path.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  SimTime now_ = kSimTimeZero;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventId current_ = kInvalidEventId;
  std::size_t live_ = 0;  // scheduled and not yet fired/cancelled
  bool stop_requested_ = false;
  Profiler* profiler_ = nullptr;
  std::vector<std::string> component_names_;
  std::unordered_map<std::string, ComponentId, StringHash, std::equal_to<>>
      component_index_;
  std::vector<QueuedEvent> queue_;  // binary heap (Later on top)
  std::size_t tombstones_ = 0;      // stale entries still parked in queue_
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace riot::sim
