// Bounded admission queue with deadline-aware shedding (per-tier
// backpressure for the serving path).
//
// Each service tier owns one AdmissionQueue modeling its capacity:
// `concurrency` parallel service slots, each taking `service_time` per
// request, with at most `queue_capacity` requests waiting. Overload
// policy, in order of application:
//
//   1. dead-on-arrival:   a request whose deadline has already passed is
//                         shed immediately — never queued (the RPC layer
//                         sheds these too; this catches budget spent in
//                         upstream queues).
//   2. priority:          the wait queue is ordered by absolute deadline
//                         (EDF) — the request with the least remaining
//                         budget is served first.
//   3. full-queue shed:   when the queue is full, the *most-slack* entry
//                         yields: an arriving request with an earlier
//                         deadline evicts the queued request with the
//                         latest deadline; otherwise the newcomer itself
//                         is shed. Requests without deadlines carry the
//                         least urgency.
//   4. dead-at-dispatch:  when a slot frees, queued requests that can no
//                         longer finish inside their deadline
//                         (now + service_time > deadline) are shed instead
//                         of served — no capacity is spent on work the
//                         caller will discard.
//
// The queue is transport-agnostic (callbacks, no net dependency) so unit
// tests drive it directly; TierServer (service.hpp) binds it to RPC.
//
// Storage is allocation-free in steady state: each request's callbacks
// sit in a recycled entry slot from offer() until it is served or shed,
// the service-completion event captures only {this, slot}, and the EDF
// multimap (deadline -> slot) draws its nodes from a pool that keeps
// freed nodes for reuse.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace riot::sim::workload {

struct AdmissionConfig {
  std::size_t queue_capacity = 256;  // waiting requests (excludes in-service)
  std::size_t concurrency = 4;       // parallel service slots
  SimTime service_time = millis(1);  // per-request service latency
};

enum class ShedReason : std::uint8_t {
  kQueueFull,  // bounced or evicted by the full-queue policy
  kExpired,    // deadline passed (on arrival or at dispatch)
};

class AdmissionQueue {
 public:
  /// `on_served` runs when the request's service completes; `on_shed`
  /// runs (at most once, instead of on_served) when it is shed. Captures
  /// up to kInlineCallableBytes are stored without a heap cell.
  using Served = InlineFunction<void()>;
  using Shed = InlineFunction<void(ShedReason)>;

  AdmissionQueue(Simulation& sim, AdmissionConfig config)
      : sim_(sim), config_(config) {}

  /// Submit a request with an absolute deadline (kSimTimeZero = none).
  void offer(SimTime deadline, Served on_served, Shed on_shed);

  // --- Introspection (tier metrics mirror these) ---------------------------
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t shed_full() const { return shed_full_; }
  [[nodiscard]] std::uint64_t shed_expired() const { return shed_expired_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_service() const { return in_service_; }
  [[nodiscard]] std::size_t queue_high_water() const { return high_water_; }

 private:
  struct Entry {
    Served on_served;
    Shed on_shed;
  };

  std::uint32_t store(Served on_served, Shed on_shed);
  Entry take(std::uint32_t entry);  // move out and free the slot
  void shed(std::uint32_t entry, ShedReason reason, std::uint64_t& counter);
  void start_service(std::uint32_t entry);
  void finish_service(std::uint32_t entry);
  void dispatch();  // fill free slots from the queue head

  Simulation& sim_;
  AdmissionConfig config_;
  // Waiting and in-service requests; slots are recycled LIFO.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_entries_;
  // EDF wait queue: key = absolute deadline (kSimTimeMax for none), value
  // = entry slot; FIFO among equal deadlines via multimap insertion order.
  std::pmr::unsynchronized_pool_resource queue_nodes_;
  std::pmr::multimap<SimTime, std::uint32_t> queue_{&queue_nodes_};
  std::size_t in_service_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t shed_full_ = 0;
  std::uint64_t shed_expired_ = 0;
};

}  // namespace riot::sim::workload
