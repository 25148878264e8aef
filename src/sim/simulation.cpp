#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace riot::sim {

ComponentId Simulation::component_id(std::string_view name) {
  if (auto it = component_index_.find(name); it != component_index_.end()) {
    return it->second;
  }
  if (component_names_.size() >= 0xffff) {
    throw std::length_error("Simulation::component_id: too many components");
  }
  const auto id = static_cast<ComponentId>(component_names_.size());
  component_names_.emplace_back(name);
  component_index_.emplace(component_names_.back(), id);
  return id;
}

std::string_view Simulation::component_name(ComponentId id) const {
  return id < component_names_.size() ? component_names_[id]
                                      : std::string_view("?");
}

std::uint32_t Simulation::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_.size() >= 0xffffffffu) {
    throw std::length_error("Simulation: event slab exhausted");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::retire_slot(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.fn = nullptr;  // release the closure now, not when the tombstone pops
  s.state = SlotState::kFree;
  if (++s.generation == 0) s.generation = 1;  // keep ids != kInvalidEventId
  free_slots_.push_back(slot);
}

EventId Simulation::schedule_at(SimTime at, Callback fn,
                                ComponentId component) {
  if (at < now_) {
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  }
  if (!fn) {
    throw std::invalid_argument("Simulation::schedule_at: empty callback");
  }
  const std::uint32_t slot = acquire_slot();
  EventSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.period = kSimTimeZero;
  s.component = component;
  s.state = SlotState::kOneShot;
  queue_push(QueuedEvent{at, next_seq_++, slot, s.generation});
  ++live_;
  return make_id(slot, s.generation);
}

EventId Simulation::schedule_every(SimTime period, Callback fn,
                                   ComponentId component) {
  return schedule_every(period, period, std::move(fn), component);
}

EventId Simulation::schedule_every(SimTime initial_delay, SimTime period,
                                   Callback fn, ComponentId component) {
  if (period <= kSimTimeZero) {
    throw std::invalid_argument("Simulation::schedule_every: period <= 0");
  }
  if (initial_delay < kSimTimeZero) {
    throw std::invalid_argument(
        "Simulation::schedule_every: negative initial delay");
  }
  if (!fn) {
    throw std::invalid_argument("Simulation::schedule_every: empty callback");
  }
  const std::uint32_t slot = acquire_slot();
  EventSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.period = period;
  s.component = component;
  s.state = SlotState::kPeriodic;
  queue_push(QueuedEvent{now_ + initial_delay, next_seq_++, slot,
                         s.generation});
  ++live_;
  return make_id(slot, s.generation);
}

bool Simulation::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  EventSlot& s = slots_[slot];
  if (s.generation != gen || s.state == SlotState::kFree) {
    return false;  // already ran, already cancelled, or never scheduled
  }
  retire_slot(slot);
  --live_;
  // Every live slot has exactly one heap entry; retiring it turned that
  // entry into a tombstone. Long-lived sims with heavy cancel churn (retry
  // timers cancelled and re-armed far in the future) would otherwise grow
  // the heap without bound between pops — compact once stale entries
  // outnumber live ones.
  ++tombstones_;
  if (tombstones_ > queue_.size() / 2 && queue_.size() >= 64) {
    compact_queue();
  }
  return true;
}

void Simulation::sift_up(std::size_t hole) {
  const QueuedEvent moving = queue_[hole];
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!runs_before(moving, queue_[parent])) break;
    queue_[hole] = queue_[parent];
    hole = parent;
  }
  queue_[hole] = moving;
}

void Simulation::sift_down(std::size_t hole, QueuedEvent moving) {
  const std::size_t size = queue_.size();
  while (true) {
    const std::size_t first = hole * kHeapArity + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kHeapArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (runs_before(queue_[child], queue_[best])) best = child;
    }
    if (!runs_before(queue_[best], moving)) break;
    queue_[hole] = queue_[best];
    hole = best;
  }
  queue_[hole] = moving;
}

void Simulation::compact_queue() {
  std::erase_if(queue_,
                [this](const QueuedEvent& qe) { return entry_stale(qe); });
  // Bottom-up rebuild: sift every internal node down, last parent first.
  if (queue_.size() > 1) {
    for (std::size_t i = (queue_.size() - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(i, queue_[i]);
    }
  }
  tombstones_ = 0;
}

void Simulation::invoke(Callback& fn, ComponentId component, SimTime at) {
  ++executed_;
  if (profiler_ == nullptr) {
    fn();
    return;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  fn();
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_micros =
      std::chrono::duration<double, std::micro>(wall_end - wall_start)
          .count();
  profiler_->on_event(component, at, wall_micros);
}

bool Simulation::step() {
  while (!queue_.empty()) {
    const QueuedEvent qe = queue_.front();
    queue_pop();
    EventSlot& s = slots_[qe.slot];
    if (s.generation != qe.gen) {  // cancelled tombstone
      --tombstones_;
      continue;
    }
    now_ = qe.at;
    current_ = make_id(qe.slot, qe.gen);
    const ComponentId component = s.component;
    if (s.state == SlotState::kPeriodic) {
      // Re-arm before invoking so the callback can cancel its own id. The
      // closure is moved out for the call: anything it schedules may grow
      // the slab and relocate the slot it lives in.
      queue_push(QueuedEvent{qe.at + s.period, next_seq_++, qe.slot,
                             qe.gen});
      Callback fn = std::move(s.fn);
      // Scope guard: the closure must return to its (possibly relocated)
      // slot on unwind too. A throwing handler would otherwise destroy the
      // moved-out closure while the re-armed heap entry survives, and the
      // next firing would invoke an empty callback
      // (std::bad_function_call). Skipped when the handler cancelled its
      // own id (generation moved on).
      struct RestoreClosure {
        Simulation& sim;
        std::uint32_t slot;
        std::uint32_t gen;
        Callback& fn;
        ~RestoreClosure() {
          EventSlot& after = sim.slots_[slot];  // slab may have reallocated
          if (after.generation == gen) after.fn = std::move(fn);
        }
      } restore{*this, qe.slot, qe.gen, fn};
      invoke(fn, component, qe.at);
    } else {
      Callback fn = std::move(s.fn);
      retire_slot(qe.slot);  // cancel(id) inside the callback returns false
      --live_;
      invoke(fn, component, qe.at);
    }
    return true;
  }
  return false;
}

void Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // Drain cancelled tombstones first: the deadline check must see the
    // next *live* event, or a stale head would let execution overshoot.
    drain_stale_head();
    if (queue_.empty() || queue_.front().at > deadline) break;
    step();
  }
  // On a stop the clock stays at the last executed event; callers read
  // now() to learn when the run actually halted.
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
}

void Simulation::run_before(SimTime end) {
  stop_requested_ = false;
  while (!stop_requested_) {
    drain_stale_head();
    if (queue_.empty() || queue_.front().at >= end) break;
    step();
  }
}

SimTime Simulation::next_event_time() {
  drain_stale_head();
  return queue_.empty() ? kSimTimeMax : queue_.front().at;
}

void Simulation::run_to_completion() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

}  // namespace riot::sim
