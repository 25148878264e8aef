// Resilient request/response RPC over the message substrate.
//
// RpcEndpoint decorates a Node with correlated request/response semantics
// plus the resilience policy layer the paper's ML4 end state demands
// ("degrades gracefully and recovers autonomously"):
//
//   - deadline budgets: one end-to-end budget caps the *whole* call — every
//     attempt's timeout is clipped to the remaining budget, and the budget
//     travels in the request envelope so servers shed requests whose caller
//     has already given up instead of doing dead work;
//   - retries with exponential backoff and decorrelated jitter, drawn from
//     the simulation RNG so retry storms stay reproducible seed-for-seed;
//   - a per-destination circuit breaker (closed / open / half-open over a
//     failure-rate window) that fails calls fast while a peer is flapping,
//     emitting `rpc/breaker` trace events and riot_rpc_* metrics on every
//     state transition;
//   - server-side idempotency: responses are cached by (caller, call_id) in
//     a bounded FIFO cache and replayed on duplicate delivery or retry, so
//     at-least-once transport becomes effectively-once handler execution.
//
// Used by protocols that are naturally call-shaped (scheduler placement
// calls, orchestrator -> cloud placement); gossip/consensus traffic stays
// on raw typed messages.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "sim/flat_map.hpp"
#include "sim/inline_function.hpp"
#include "sim/rng.hpp"

namespace riot::net {

/// Terminal outcome of a call, beyond "response or not".
enum class RpcError : std::uint8_t {
  kNone = 0,     // success; RpcResult::value is engaged
  kTimeout,      // every permitted attempt timed out / budget exhausted
  kNoHandler,    // peer answered: no handler registered for this type
  kExpired,      // deadline passed (shed server-side, or budget spent)
  kCircuitOpen,  // failed fast: breaker open for this destination
};

std::string_view to_string(RpcError error);

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

std::string_view to_string(BreakerState state);

/// Per-destination circuit-breaker tuning (endpoint-wide; see
/// RpcEndpoint::set_breaker).
struct BreakerConfig {
  std::size_t window = 10;          // outcomes remembered per destination
  std::size_t min_samples = 5;      // never trip on fewer outcomes
  double failure_threshold = 0.5;   // open at >= this failure rate
  sim::SimTime open_timeout = sim::seconds(1);  // open -> half-open cooldown
};

struct RpcOptions {
  sim::SimTime timeout = sim::millis(500);  // per attempt (clipped to budget)
  int max_attempts = 1;                     // 1 = no retry
  /// End-to-end budget across all attempts and backoff waits; zero = only
  /// max_attempts bounds the call. Propagated in the request envelope.
  sim::SimTime deadline = sim::kSimTimeZero;
  /// Decorrelated-jitter backoff between attempts: sleep_n is uniform in
  /// [base, 3 * sleep_{n-1}], clamped to cap.
  sim::SimTime backoff_base = sim::millis(50);
  sim::SimTime backoff_cap = sim::seconds(5);
  bool use_breaker = true;
};

template <typename Resp>
struct RpcResult {
  std::optional<Resp> value;
  RpcError error = RpcError::kNone;
  int attempts = 0;  // attempts actually sent (0 if failed fast pre-send)
  /// The response message carried the transport's Byzantine-falsification
  /// mark (see Message::tainted). The call still counts as ok() — detecting
  /// and reacting to a falsified result (verification, trust scoring) is
  /// deliberately the caller's job, exactly like a real verify-then-trust
  /// pipeline.
  bool tainted = false;
  [[nodiscard]] bool ok() const { return value.has_value(); }
};

namespace detail {

enum class RpcWireStatus : std::uint8_t { kOk, kNoHandler, kExpired };

// The envelopes carry their body in a nested typed box (16-byte inline
// budget: empty and tiny bodies ride free, bigger ones spill to one heap
// cell) and tag it with the body's PayloadKind so servers dispatch through
// a flat table — the envelope structs themselves stay small enough to ride
// the message envelope's inline buffer.
struct RpcRequestEnvelope {
  std::uint64_t call_id = 0;  // stable across retries (dedup identity)
  std::uint32_t attempt = 0;  // 1-based; responses echo it (stale-reply guard)
  sim::SimTime deadline = sim::kSimTimeZero;  // absolute caller clock; 0=none
  PayloadKind body_kind = kInvalidPayloadKind;
  std::uint32_t body_size = 0;
  NestedPayloadBox body;
  std::uint32_t wire_size() const { return body_size; }
};

struct RpcResponseEnvelope {
  std::uint64_t call_id = 0;
  std::uint32_t attempt = 0;
  RpcWireStatus status = RpcWireStatus::kOk;
  std::uint32_t body_size = 0;
  NestedPayloadBox body;  // engaged only when status == kOk
  std::uint32_t wire_size() const { return body_size; }
};

/// Identity of one logical server-side execution: retries and duplicates of
/// a call share the key, so it indexes both the response cache and the
/// in-progress (async) table.
struct DedupKey {
  std::uint32_t caller;
  std::uint64_t call_id;
  bool operator==(const DedupKey&) const = default;
};
struct DedupKeyHash {
  std::size_t operator()(const DedupKey& k) const {
    std::uint64_t h = k.call_id * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(k.caller) << 32) | k.caller;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

}  // namespace detail

class RpcEndpoint;

/// Completion handle for an async server handler (see serve_async). Respond
/// exactly once; extra invocations are ignored (the in-progress entry is
/// consumed by the first). Copyable so handlers can stash it in queues and
/// downstream-call closures. Must not outlive the endpoint.
template <typename Resp>
class RpcResponder {
 public:
  RpcResponder() = default;

  void operator()(Resp resp) const;

 private:
  friend class RpcEndpoint;
  RpcResponder(RpcEndpoint* endpoint, detail::DedupKey key)
      : endpoint_(endpoint), key_(key) {}

  RpcEndpoint* endpoint_ = nullptr;
  detail::DedupKey key_{0, 0};
};

class RpcEndpoint {
 public:
  explicit RpcEndpoint(Node& node);

  /// Register a server handler: Req -> Resp. Handler execution is
  /// effectively-once per (caller, call_id): retries and network duplicates
  /// replay the cached response instead of re-invoking.
  template <typename Req, typename Resp>
  void serve(std::function<Resp(NodeId from, const Req&)> handler) {
    static_assert(std::copy_constructible<Resp>,
                  "RPC responses must be copyable: the idempotency cache "
                  "replays them on duplicate requests");
    const PayloadKind kind = payload_kind_of<Req>();
    if (servers_.size() <= kind) servers_.resize(kind + 1);
    servers_[kind] = [this, handler = std::move(handler)](
                         NodeId from, const detail::RpcRequestEnvelope& env) {
      Resp resp = handler(from, env.body.as_unchecked<Req>());
      const std::uint32_t size = wire_size_of(resp);
      NestedPayloadBox body{std::move(resp)};
      remember({from.value, env.call_id}, body, size);
      respond(from, env.call_id, env.attempt, detail::RpcWireStatus::kOk,
              std::move(body), size);
    };
  }

  /// Register an *async* server handler: the response is produced later —
  /// after queueing, a service delay, or a downstream call — by invoking
  /// the RpcResponder. Execution stays effectively-once per (caller,
  /// call_id): duplicates arriving while the handler is in flight are
  /// suppressed (the eventual response answers the latest attempt seen),
  /// and duplicates after completion replay the cached response. `deadline`
  /// is the caller's absolute end-to-end budget (zero = none) so queueing
  /// layers can prioritize by remaining budget and shed dead work.
  template <typename Req, typename Resp>
  void serve_async(std::function<void(NodeId from, const Req&,
                                      sim::SimTime deadline,
                                      RpcResponder<Resp>)>
                       handler) {
    static_assert(std::copy_constructible<Resp>,
                  "RPC responses must be copyable: the idempotency cache "
                  "replays them on duplicate requests");
    const PayloadKind kind = payload_kind_of<Req>();
    if (servers_.size() <= kind) servers_.resize(kind + 1);
    servers_[kind] = [this, handler = std::move(handler)](
                         NodeId from, const detail::RpcRequestEnvelope& env) {
      const detail::DedupKey key{from.value, env.call_id};
      in_progress_.insert_or_assign(key, env.attempt);
      handler(from, env.body.as_unchecked<Req>(), env.deadline,
              RpcResponder<Resp>(this, key));
    };
  }

  /// What a call slot keeps of the caller's completion. Captures up to
  /// kInlineCallableBytes ride inline in the slot; callers on the serving
  /// path static_assert that theirs do.
  using Completion =
      sim::InlineFunction<void(RpcError, NestedPayloadBox*, int, bool)>;

  /// Issue a call with full outcome reporting. `done` is invoked once with
  /// an RpcResult<Resp>, always from a later event, and after the call's
  /// slot is released, so it may issue new calls.
  template <typename Req, typename Resp, typename Done>
  void call_result(NodeId to, Req request, RpcOptions options, Done&& done) {
    static_assert(std::copy_constructible<Req>,
                  "RPC requests must be copyable: retries re-send them");
    static_assert(std::is_invocable_v<std::decay_t<Done>&, RpcResult<Resp>>,
                  "done must accept an RpcResult<Resp>");
    const std::uint32_t size = wire_size_of(request);
    start_call(to, options, payload_kind_of<Req>(), size,
               NestedPayloadBox{std::move(request)},
               [done = std::forward<Done>(done)](
                   RpcError error, NestedPayloadBox* body, int attempts,
                   bool tainted) mutable {
                 RpcResult<Resp> r;
                 r.error = error;
                 r.attempts = attempts;
                 r.tainted = tainted;
                 if (body != nullptr) r.value = body->take<Resp>();
                 done(std::move(r));
               });
  }

  /// Compatibility surface: `done` receives nullopt on any failure.
  template <typename Req, typename Resp, typename Done>
  void call(NodeId to, Req request, RpcOptions options, Done&& done) {
    call_result<Req, Resp>(
        to, std::move(request), options,
        [done = std::forward<Done>(done)](RpcResult<Resp> r) mutable {
          done(std::move(r.value));
        });
  }

  // --- Policy knobs ---------------------------------------------------------

  void set_breaker(BreakerConfig config) { breaker_config_ = config; }
  /// Bound on the response cache (entries, FIFO eviction). Sizing rule:
  /// at least the number of calls a peer set can retry within one deadline
  /// budget, or a retry landing after eviction re-executes the handler.
  void set_dedup_capacity(std::size_t capacity);
  /// Observe every *actual* handler execution (dedup-suppressed replays do
  /// not fire). Chaos invariants count executions per (caller, call_id).
  void set_execution_observer(
      std::function<void(NodeId caller, std::uint64_t call_id)> observer) {
    on_execute_ = std::move(observer);
  }

  /// Breaker state for a destination (kClosed when never used). Note the
  /// open -> half-open transition is traffic-driven: it happens when the
  /// first call after the cooldown is admitted.
  [[nodiscard]] BreakerState breaker_state(NodeId to) const;

  // --- Per-endpoint counters (registry-level riot_rpc_* mirror these) ------

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t failed_fast() const { return failed_fast_; }
  [[nodiscard]] std::uint64_t dedup_hits() const { return dedup_hits_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  [[nodiscard]] std::uint64_t stale_responses() const {
    return stale_responses_;
  }
  [[nodiscard]] std::uint64_t handler_executions() const {
    return handler_executions_;
  }
  [[nodiscard]] std::uint64_t inflight_suppressed() const {
    return inflight_suppressed_;
  }
  [[nodiscard]] std::size_t dedup_size() const { return dedup_.size(); }
  [[nodiscard]] std::size_t in_progress_count() const {
    return in_progress_.size();
  }
  /// Calls issued and not yet completed: an attempt in flight or a retry
  /// waiting out its backoff. A call orphaned by its caller's crash stays
  /// counted.
  [[nodiscard]] std::size_t pending_count() const {
    return calls_slab_.size() - free_calls_.size();
  }

 private:
  // One issued call, from call_result to completion. Slots live in a slab
  // and are recycled LIFO; `generation` is bumped on release, so timers
  // (which capture {slot, generation}) can never act on a recycled slot.
  struct CallSlot {
    std::uint64_t call_id = 0;
    std::uint32_t generation = 1;
    std::uint32_t attempt = 0;  // current (1-based)
    NodeId to;
    PayloadKind request_kind = kInvalidPayloadKind;
    std::uint32_t request_size = 0;
    RpcOptions options;
    sim::SimTime started_at = sim::kSimTimeZero;
    sim::SimTime deadline_at = sim::kSimTimeZero;  // zero = unbounded
    sim::SimTime last_backoff = sim::kSimTimeZero;
    sim::EventId timeout_event = sim::kInvalidEventId;
    NestedPayloadBox request;  // copied into every attempt's envelope
    Completion complete;
  };

  // Outcomes of the last BreakerConfig::window attempts, as a ring sized
  // once per destination (re-sized only if set_breaker changes the window).
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::vector<std::uint8_t> window;  // 1 = failure
    std::size_t oldest = 0;
    std::size_t count = 0;
    std::size_t failures = 0;
    sim::SimTime open_until = sim::kSimTimeZero;
    bool probe_in_flight = false;

    void record(bool failure, std::size_t capacity);
    void clear() {
      oldest = 0;
      count = 0;
      failures = 0;
    }
  };

  template <typename Resp>
  friend class RpcResponder;

  // One cached response; dedup_ is a FIFO ring of these.
  struct DedupEntry {
    detail::DedupKey key{0, 0};
    std::uint32_t size = 0;
    NestedPayloadBox body;
  };

  // Client path.
  void start_call(NodeId to, const RpcOptions& options, PayloadKind kind,
                  std::uint32_t size, NestedPayloadBox request,
                  Completion complete);
  void begin_attempt(std::uint32_t slot);
  void send_attempt(const CallSlot& call);
  void on_attempt_timeout(std::uint32_t slot);
  void fail_fast(std::uint32_t slot, RpcError error);
  void finish(std::uint32_t slot, RpcError error, NestedPayloadBox* body,
              bool tainted = false);
  [[nodiscard]] sim::SimTime next_backoff(CallSlot& call);

  // Breaker.
  bool admit(NodeId to);
  void record_outcome(NodeId to, bool failure);
  void transition(Breaker& breaker, NodeId to, BreakerState next);

  // Server path.
  void handle_request(NodeId from, const detail::RpcRequestEnvelope& env);
  // Takes the whole Message: the transport-level taint mark must survive
  // into RpcResult (the payload accessor alone cannot carry it).
  void handle_response(const Message& msg,
                       const detail::RpcResponseEnvelope& env);
  void respond(NodeId to, std::uint64_t call_id, std::uint32_t attempt,
               detail::RpcWireStatus status, NestedPayloadBox body,
               std::uint32_t size);
  void remember(const detail::DedupKey& key, const NestedPayloadBox& body,
                std::uint32_t size);
  /// Finish an async execution: consume the in-progress entry, cache the
  /// response, and answer the latest attempt seen. No-op when the entry was
  /// already consumed (double respond).
  void complete_async(const detail::DedupKey& key, NestedPayloadBox body,
                      std::uint32_t size);

  Node& node_;
  sim::Rng rng_;
  BreakerConfig breaker_config_;
  std::size_t dedup_capacity_ = 1024;
  std::uint64_t next_call_id_ = 1;

  std::uint64_t calls_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_fast_ = 0;
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t stale_responses_ = 0;
  std::uint64_t handler_executions_ = 0;
  std::uint64_t inflight_suppressed_ = 0;

  std::vector<CallSlot> calls_slab_;
  std::vector<std::uint32_t> free_calls_;  // recycled slots, LIFO
  // call_id -> slot, while an attempt is outstanding (not during backoff).
  sim::FlatMap<std::uint64_t, std::uint32_t> pending_;
  std::unordered_map<std::uint32_t, Breaker> breakers_;  // by NodeId value
  // Response cache: a FIFO ring that grows to dedup_capacity_ entries, then
  // overwrites its oldest (dedup_oldest_); the index maps key -> position.
  std::vector<DedupEntry> dedup_;
  std::size_t dedup_oldest_ = 0;
  sim::FlatMap<detail::DedupKey, std::uint32_t, detail::DedupKeyHash>
      dedup_index_;
  // Async executions in flight: (caller, call_id) -> latest attempt seen.
  sim::FlatMap<detail::DedupKey, std::uint32_t, detail::DedupKeyHash>
      in_progress_;
  // Flat server-dispatch table, indexed by the request body's PayloadKind.
  // Entries run after the shed / dedup / in-progress checks and own the
  // whole response path (sync entries respond inline, async ones later).
  std::vector<std::function<void(NodeId, const detail::RpcRequestEnvelope&)>>
      servers_;
  std::function<void(NodeId, std::uint64_t)> on_execute_;

  // Registry-level handles (shared across endpoints), resolved once here.
  sim::Counter& calls_total_;
  sim::Counter& attempts_total_;
  sim::Counter& retries_total_;
  sim::Counter& timeouts_total_;
  sim::Counter& dedup_hits_total_;
  sim::Counter& inflight_suppressed_total_;
  sim::Counter& shed_total_;
  sim::Counter& stale_total_;
  sim::Counter& no_handler_total_;
  sim::Counter& breaker_rejected_total_;
  std::array<sim::Counter*, 5> completed_by_result_;  // indexed by RpcError
  std::array<sim::Counter*, 3> breaker_transitions_;  // indexed by BreakerState
  sim::Histogram& call_latency_us_;
};

template <typename Resp>
void RpcResponder<Resp>::operator()(Resp resp) const {
  if (endpoint_ == nullptr) return;  // default-constructed: inert
  const std::uint32_t size = wire_size_of(resp);
  endpoint_->complete_async(key_, NestedPayloadBox{std::move(resp)}, size);
}

}  // namespace riot::net
