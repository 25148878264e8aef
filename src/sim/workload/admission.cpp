#include "sim/workload/admission.hpp"

namespace riot::sim::workload {

void AdmissionQueue::offer(SimTime deadline, Served on_served, Shed on_shed) {
  ++offered_;
  const bool bounded = deadline > kSimTimeZero;
  // Dead on arrival: cannot finish inside the deadline even if served
  // right now (same rule dispatch() applies to queued entries).
  if (bounded && sim_.now() + config_.service_time > deadline) {
    ++shed_expired_;
    if (on_shed) on_shed(ShedReason::kExpired);
    return;
  }
  if (in_service_ < config_.concurrency && queue_.empty()) {
    start_service(store(std::move(on_served), std::move(on_shed)));
    return;
  }
  const SimTime key = bounded ? deadline : kSimTimeMax;
  if (queue_.size() >= config_.queue_capacity) {
    // Full: the most-slack request yields — an urgent newcomer evicts the
    // latest-deadline entry, otherwise the newcomer itself bounces. With
    // zero capacity there is nothing to evict: always bounce.
    if (queue_.empty() || key >= std::prev(queue_.end())->first) {
      ++shed_full_;
      if (on_shed) on_shed(ShedReason::kQueueFull);
      return;
    }
    auto most_slack = std::prev(queue_.end());
    shed(most_slack->second, ShedReason::kQueueFull, shed_full_);
    queue_.erase(most_slack);
  }
  queue_.emplace(key, store(std::move(on_served), std::move(on_shed)));
  high_water_ = std::max(high_water_, queue_.size());
}

std::uint32_t AdmissionQueue::store(Served on_served, Shed on_shed) {
  std::uint32_t entry;
  if (!free_entries_.empty()) {
    entry = free_entries_.back();
    free_entries_.pop_back();
  } else {
    entry = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[entry].on_served = std::move(on_served);
  entries_[entry].on_shed = std::move(on_shed);
  return entry;
}

AdmissionQueue::Entry AdmissionQueue::take(std::uint32_t entry) {
  // Callers run a callback next, which may offer again and reuse the slot.
  Entry taken = std::move(entries_[entry]);
  free_entries_.push_back(entry);
  return taken;
}

void AdmissionQueue::shed(std::uint32_t entry, ShedReason reason,
                          std::uint64_t& counter) {
  ++counter;
  Entry taken = take(entry);
  if (taken.on_shed) taken.on_shed(reason);
}

void AdmissionQueue::start_service(std::uint32_t entry) {
  ++in_service_;
  auto done = [this, entry] { finish_service(entry); };
  static_assert(Simulation::Callback::stores_inline<decltype(done)>());
  sim_.schedule_after(config_.service_time, done);
}

void AdmissionQueue::finish_service(std::uint32_t entry) {
  --in_service_;
  ++served_;
  Entry taken = take(entry);
  if (taken.on_served) taken.on_served();
  dispatch();
}

void AdmissionQueue::dispatch() {
  while (in_service_ < config_.concurrency && !queue_.empty()) {
    auto head = queue_.begin();
    const SimTime deadline = head->first;
    const std::uint32_t entry = head->second;
    queue_.erase(head);
    // Dead at dispatch: the request cannot finish inside its deadline.
    if (deadline != kSimTimeMax &&
        sim_.now() + config_.service_time > deadline) {
      shed(entry, ShedReason::kExpired, shed_expired_);
      continue;
    }
    start_service(entry);
  }
}

}  // namespace riot::sim::workload
