#include "net/rpc.hpp"

#include <algorithm>

#include "net/network.hpp"

namespace riot::net {

std::string_view to_string(RpcError error) {
  switch (error) {
    case RpcError::kNone: return "ok";
    case RpcError::kTimeout: return "timeout";
    case RpcError::kNoHandler: return "no_handler";
    case RpcError::kExpired: return "expired";
    case RpcError::kCircuitOpen: return "circuit_open";
  }
  return "unknown";
}

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

RpcEndpoint::RpcEndpoint(Node& node)
    : node_(node),
      // Each endpoint gets an independent, deterministic jitter stream:
      // split() consumes one draw from the simulation's root generator at
      // construction time (setup, never mid-run).
      rng_(node.simulation().rng().split("rpc")),
      calls_total_(node.network()
                       .metrics()
                       .counter_family("riot_rpc_calls_total",
                                       "logical RPC calls issued")
                       .with({})),
      attempts_total_(node.network()
                          .metrics()
                          .counter_family("riot_rpc_attempts_total",
                                          "request attempts sent "
                                          "(first sends + retries)")
                          .with({})),
      retries_total_(node.network()
                         .metrics()
                         .counter_family("riot_rpc_retries_total",
                                         "retry attempts after a timeout")
                         .with({})),
      timeouts_total_(node.network()
                          .metrics()
                          .counter_family("riot_rpc_timeouts_total",
                                          "per-attempt timeouts")
                          .with({})),
      dedup_hits_total_(node.network()
                            .metrics()
                            .counter_family(
                                "riot_rpc_dedup_hits_total",
                                "duplicate requests answered from the "
                                "response cache (handler not re-run)")
                            .with({})),
      inflight_suppressed_total_(
          node.network()
              .metrics()
              .counter_family("riot_rpc_inflight_suppressed_total",
                              "duplicate requests dropped because an async "
                              "handler for the call was still in flight")
              .with({})),
      shed_total_(node.network()
                      .metrics()
                      .counter_family("riot_rpc_shed_total",
                                      "requests shed server-side because "
                                      "the caller's deadline had passed")
                      .with({})),
      stale_total_(node.network()
                       .metrics()
                       .counter_family("riot_rpc_stale_responses_total",
                                       "responses ignored because the call "
                                       "completed or moved to a newer "
                                       "attempt")
                       .with({})),
      no_handler_total_(node.network()
                            .metrics()
                            .counter_family("riot_rpc_no_handler_total",
                                            "requests for an unregistered "
                                            "type, answered with an error "
                                            "envelope")
                            .with({})),
      breaker_rejected_total_(node.network()
                                  .metrics()
                                  .counter_family(
                                      "riot_rpc_breaker_rejected_total",
                                      "calls failed fast because the "
                                      "destination breaker was open")
                                  .with({})),
      call_latency_us_(node.network()
                           .metrics()
                           .histogram_family("riot_rpc_call_latency_us",
                                             "successful call latency, "
                                             "first send to response")
                           .with({})) {
  auto& completed = node.network().metrics().counter_family(
      "riot_rpc_completed_total", "calls completed, by terminal result");
  completed_by_result_ = {
      &completed.with({{"result", "ok"}}),
      &completed.with({{"result", "timeout"}}),
      &completed.with({{"result", "no_handler"}}),
      &completed.with({{"result", "expired"}}),
      &completed.with({{"result", "circuit_open"}}),
  };
  auto& transitions = node.network().metrics().counter_family(
      "riot_rpc_breaker_transitions_total",
      "circuit-breaker state transitions, by target state");
  breaker_transitions_ = {
      &transitions.with({{"to", "closed"}}),
      &transitions.with({{"to", "open"}}),
      &transitions.with({{"to", "half_open"}}),
  };
  node_.on<detail::RpcRequestEnvelope>(
      [this](NodeId from, const detail::RpcRequestEnvelope& env) {
        handle_request(from, env);
      });
  node_.on_message<detail::RpcResponseEnvelope>(
      [this](const Message& msg, const detail::RpcResponseEnvelope& env) {
        handle_response(msg, env);
      });
}

void RpcEndpoint::set_dedup_capacity(std::size_t capacity) {
  dedup_capacity_ = std::max<std::size_t>(capacity, 1);
  // Lay the ring out oldest-first, drop the oldest beyond the new bound,
  // and re-index: remember() appends until the ring is full again.
  std::rotate(dedup_.begin(),
              dedup_.begin() + static_cast<std::ptrdiff_t>(dedup_oldest_),
              dedup_.end());
  dedup_oldest_ = 0;
  if (dedup_.size() > dedup_capacity_) {
    const auto drop =
        static_cast<std::ptrdiff_t>(dedup_.size() - dedup_capacity_);
    for (auto it = dedup_.begin(); it != dedup_.begin() + drop; ++it) {
      dedup_index_.erase(it->key);
    }
    dedup_.erase(dedup_.begin(), dedup_.begin() + drop);
  }
  for (std::size_t i = 0; i < dedup_.size(); ++i) {
    dedup_index_.insert_or_assign(dedup_[i].key,
                                  static_cast<std::uint32_t>(i));
  }
}

BreakerState RpcEndpoint::breaker_state(NodeId to) const {
  const auto it = breakers_.find(to.value);
  return it == breakers_.end() ? BreakerState::kClosed : it->second.state;
}

// --- Client path ------------------------------------------------------------

void RpcEndpoint::start_call(NodeId to, const RpcOptions& options,
                             PayloadKind kind, std::uint32_t size,
                             NestedPayloadBox request, Completion complete) {
  std::uint32_t slot;
  if (!free_calls_.empty()) {
    slot = free_calls_.back();
    free_calls_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(calls_slab_.size());
    calls_slab_.emplace_back();
  }
  CallSlot& call = calls_slab_[slot];
  call.call_id = next_call_id_++;
  call.attempt = 0;
  call.to = to;
  call.request_kind = kind;
  call.request_size = size;
  call.options = options;
  call.started_at = node_.now();
  call.deadline_at = options.deadline > sim::kSimTimeZero
                         ? call.started_at + options.deadline
                         : sim::kSimTimeZero;
  call.last_backoff = sim::kSimTimeZero;
  call.timeout_event = sim::kInvalidEventId;
  call.request = std::move(request);
  call.complete = std::move(complete);
  ++calls_;
  calls_total_.increment();
  begin_attempt(slot);
}

void RpcEndpoint::begin_attempt(std::uint32_t slot) {
  CallSlot& call = calls_slab_[slot];
  if (call.options.use_breaker && !admit(call.to)) {
    breaker_rejected_total_.increment();
    ++failed_fast_;
    fail_fast(slot, RpcError::kCircuitOpen);
    return;
  }
  sim::SimTime timeout = call.options.timeout;
  if (call.deadline_at > sim::kSimTimeZero) {
    const sim::SimTime remaining = call.deadline_at - node_.now();
    if (remaining <= sim::kSimTimeZero) {
      fail_fast(slot, RpcError::kExpired);
      return;
    }
    timeout = std::min(timeout, remaining);
  }
  ++call.attempt;
  attempts_total_.increment();
  if (call.attempt > 1) {
    ++retries_;
    retries_total_.increment();
  }
  pending_.insert_or_assign(call.call_id, slot);
  auto on_timeout = [this, slot, gen = call.generation] {
    if (calls_slab_[slot].generation == gen) on_attempt_timeout(slot);
  };
  static_assert(Node::timer_stores_inline<decltype(on_timeout)>());
  call.timeout_event = node_.after(timeout, on_timeout);
  send_attempt(call);
}

void RpcEndpoint::send_attempt(const CallSlot& call) {
  detail::RpcRequestEnvelope env;
  env.call_id = call.call_id;
  env.attempt = call.attempt;
  env.deadline = call.deadline_at;
  env.body_kind = call.request_kind;
  env.body_size = call.request_size;
  env.body = call.request;  // copy: retries re-send
  node_.send(call.to, std::move(env));
}

void RpcEndpoint::on_attempt_timeout(std::uint32_t slot) {
  CallSlot& call = calls_slab_[slot];
  if (!pending_.erase(call.call_id)) return;  // completed
  ++timeouts_;
  timeouts_total_.increment();
  if (call.options.use_breaker) record_outcome(call.to, /*failure=*/true);
  if (call.attempt < static_cast<std::uint32_t>(
                         std::max(call.options.max_attempts, 1))) {
    const sim::SimTime backoff = next_backoff(call);
    // Only retry when the attempt can still start inside the budget.
    if (call.deadline_at == sim::kSimTimeZero ||
        node_.now() + backoff < call.deadline_at) {
      auto retry = [this, slot, gen = call.generation] {
        if (calls_slab_[slot].generation == gen) begin_attempt(slot);
      };
      static_assert(Node::timer_stores_inline<decltype(retry)>());
      node_.after(backoff, retry);
      return;
    }
  }
  finish(slot, RpcError::kTimeout, nullptr);
}

void RpcEndpoint::fail_fast(std::uint32_t slot, RpcError error) {
  // Deferred one event so completions are always asynchronous — callers
  // never observe `done` running inside call_result().
  auto complete = [this, slot, gen = calls_slab_[slot].generation, error] {
    if (calls_slab_[slot].generation == gen) finish(slot, error, nullptr);
  };
  static_assert(Node::timer_stores_inline<decltype(complete)>());
  node_.after(sim::kSimTimeZero, complete);
}

void RpcEndpoint::finish(std::uint32_t slot, RpcError error,
                         NestedPayloadBox* body, bool tainted) {
  CallSlot& call = calls_slab_[slot];
  completed_by_result_[static_cast<std::size_t>(error)]->increment();
  if (error == RpcError::kNone) {
    ++completed_;
    call_latency_us_.record_time(node_.now() - call.started_at);
  }
  // Release the slot before running the completion: `done` may issue new
  // calls, which may reuse this slot or grow the slab under it.
  Completion complete = std::move(call.complete);
  const int attempts = static_cast<int>(call.attempt);
  call.request.reset();
  if (++call.generation == 0) call.generation = 1;
  free_calls_.push_back(slot);
  complete(error, body, attempts, tainted);
}

sim::SimTime RpcEndpoint::next_backoff(CallSlot& call) {
  const double base = sim::to_micros(call.options.backoff_base);
  const double cap = sim::to_micros(call.options.backoff_cap);
  const double prev = call.last_backoff > sim::kSimTimeZero
                          ? sim::to_micros(call.last_backoff)
                          : base;
  const sim::SimTime backoff{static_cast<std::int64_t>(
      rng_.decorrelated(base, prev, cap) * 1e3)};  // us -> ns
  call.last_backoff = backoff;
  return backoff;
}

// --- Circuit breaker --------------------------------------------------------

bool RpcEndpoint::admit(NodeId to) {
  Breaker& b = breakers_[to.value];
  switch (b.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (node_.now() < b.open_until) return false;
      transition(b, to, BreakerState::kHalfOpen);
      b.probe_in_flight = false;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (b.probe_in_flight) return false;
      b.probe_in_flight = true;
      return true;
  }
  return true;
}

void RpcEndpoint::record_outcome(NodeId to, bool failure) {
  Breaker& b = breakers_[to.value];
  switch (b.state) {
    case BreakerState::kHalfOpen:
      b.probe_in_flight = false;
      if (failure) {
        b.open_until = node_.now() + breaker_config_.open_timeout;
        transition(b, to, BreakerState::kOpen);
      } else {
        b.clear();
        transition(b, to, BreakerState::kClosed);
      }
      break;
    case BreakerState::kClosed: {
      b.record(failure, breaker_config_.window);
      const double rate = b.count == 0
                              ? 0.0
                              : static_cast<double>(b.failures) /
                                    static_cast<double>(b.count);
      if (b.count >= breaker_config_.min_samples &&
          rate >= breaker_config_.failure_threshold) {
        b.clear();
        b.open_until = node_.now() + breaker_config_.open_timeout;
        transition(b, to, BreakerState::kOpen);
      }
      break;
    }
    case BreakerState::kOpen:
      // Straggler outcomes of attempts admitted before the trip; the open
      // window already accounts for the peer being unhealthy.
      break;
  }
}

void RpcEndpoint::Breaker::record(bool failure, std::size_t capacity) {
  if (window.size() != capacity) {
    // First outcome for this destination, or set_breaker changed the
    // window: keep the newest outcomes that still fit, oldest first.
    std::vector<std::uint8_t> resized(capacity);
    const std::size_t keep = std::min(count, capacity);
    failures = 0;
    for (std::size_t i = 0; i < keep; ++i) {
      resized[i] = window[(oldest + count - keep + i) % window.size()];
      failures += resized[i];
    }
    window = std::move(resized);
    oldest = 0;
    count = keep;
  }
  if (capacity == 0) return;
  if (count == capacity) {
    failures -= window[oldest];
    window[oldest] = failure ? 1 : 0;
    oldest = (oldest + 1) % capacity;
  } else {
    window[(oldest + count) % capacity] = failure ? 1 : 0;
    ++count;
  }
  if (failure) ++failures;
}

void RpcEndpoint::transition(Breaker& breaker, NodeId to,
                             BreakerState next) {
  breaker.state = next;
  breaker_transitions_[static_cast<std::size_t>(next)]->increment();
  node_.network()
      .trace()
      .event("rpc", "breaker")
      .node(node_.id().value)
      .kv("peer", to.value)
      .kv("state", to_string(next));
}

// --- Server path ------------------------------------------------------------

void RpcEndpoint::handle_request(NodeId from,
                                 const detail::RpcRequestEnvelope& env) {
  // Shed requests whose caller has already given up — the paper's "do not
  // do dead work under overload" degradation rule. Uses this node's local
  // clock, so clock skew honestly widens or narrows the shedding window.
  if (env.deadline > sim::kSimTimeZero && node_.now() > env.deadline) {
    ++shed_;
    shed_total_.increment();
    node_.network()
        .trace()
        .event("rpc", "shed")
        .debug()
        .node(node_.id().value)
        .kv("caller", from.value)
        .kv("call", env.call_id);
    respond(from, env.call_id, env.attempt, detail::RpcWireStatus::kExpired,
            {}, 0);
    return;
  }
  const detail::DedupKey key{from.value, env.call_id};
  if (const std::uint32_t* pos = dedup_index_.find(key)) {
    const DedupEntry& cached = dedup_[*pos];
    ++dedup_hits_;
    dedup_hits_total_.increment();
    respond(from, env.call_id, env.attempt, detail::RpcWireStatus::kOk,
            cached.body, cached.size);
    return;
  }
  if (std::uint32_t* latest = in_progress_.find(key)) {
    // An async handler is already executing this call; remember the newest
    // attempt so the eventual response is not discarded as stale, and drop
    // the duplicate instead of re-executing.
    *latest = std::max(*latest, env.attempt);
    ++inflight_suppressed_;
    inflight_suppressed_total_.increment();
    return;
  }
  const auto* server = env.body_kind < servers_.size()
                           ? &servers_[env.body_kind]
                           : nullptr;
  if (server == nullptr || !*server) {
    // Answer with an error envelope so the caller fails fast with a
    // distinct no_handler outcome instead of burning its whole deadline.
    no_handler_total_.increment();
    respond(from, env.call_id, env.attempt,
            detail::RpcWireStatus::kNoHandler, {}, 0);
    return;
  }
  ++handler_executions_;
  if (on_execute_) on_execute_(from, env.call_id);
  (*server)(from, env);
}

void RpcEndpoint::complete_async(const detail::DedupKey& key,
                                 NestedPayloadBox body, std::uint32_t size) {
  const std::uint32_t* latest = in_progress_.find(key);
  if (latest == nullptr) return;  // already responded
  const std::uint32_t attempt = *latest;
  in_progress_.erase(key);
  remember(key, body, size);
  respond(NodeId{key.caller}, key.call_id, attempt,
          detail::RpcWireStatus::kOk, std::move(body), size);
}

void RpcEndpoint::handle_response(const Message& msg,
                                  const detail::RpcResponseEnvelope& env) {
  const std::uint32_t* found = pending_.find(env.call_id);
  if (found == nullptr || calls_slab_[*found].attempt != env.attempt) {
    // Late reply after the call completed, or a reply to a superseded
    // attempt racing the retry — never match it to the newer attempt.
    ++stale_responses_;
    stale_total_.increment();
    return;
  }
  const std::uint32_t slot = *found;
  pending_.erase(env.call_id);
  const CallSlot& call = calls_slab_[slot];
  node_.cancel(call.timeout_event);
  const bool use_breaker = call.options.use_breaker;
  switch (env.status) {
    case detail::RpcWireStatus::kOk: {
      // A tainted response is still a *response*: the channel worked, so
      // the breaker records success; the taint rides RpcResult for the
      // verification layer (trust scoring) to judge.
      if (use_breaker) record_outcome(call.to, false);
      NestedPayloadBox body = env.body;
      finish(slot, RpcError::kNone, &body, msg.tainted);
      break;
    }
    case detail::RpcWireStatus::kNoHandler:
      // The peer is alive and responsive — a healthy channel as far as the
      // breaker is concerned; the caller is simply talking to the wrong
      // endpoint. Fail without retrying.
      if (use_breaker) record_outcome(call.to, false);
      finish(slot, RpcError::kNoHandler, nullptr);
      break;
    case detail::RpcWireStatus::kExpired:
      // Too slow end-to-end: evidence of an unhealthy path, and no point
      // retrying a spent budget.
      if (use_breaker) record_outcome(call.to, true);
      finish(slot, RpcError::kExpired, nullptr);
      break;
  }
}

void RpcEndpoint::respond(NodeId to, std::uint64_t call_id,
                          std::uint32_t attempt,
                          detail::RpcWireStatus status,
                          NestedPayloadBox body, std::uint32_t size) {
  node_.send(to, detail::RpcResponseEnvelope{call_id, attempt, status, size,
                                             std::move(body)});
}

void RpcEndpoint::remember(const detail::DedupKey& key,
                           const NestedPayloadBox& body,
                           std::uint32_t size) {
  if (dedup_.size() < dedup_capacity_) {  // still growing: oldest is [0]
    dedup_index_.insert_or_assign(key,
                                  static_cast<std::uint32_t>(dedup_.size()));
    dedup_.push_back(DedupEntry{key, size, body});
    return;
  }
  DedupEntry& evicted = dedup_[dedup_oldest_];
  dedup_index_.erase(evicted.key);
  evicted.key = key;
  evicted.size = size;
  evicted.body = body;
  dedup_index_.insert_or_assign(key,
                                static_cast<std::uint32_t>(dedup_oldest_));
  dedup_oldest_ = (dedup_oldest_ + 1) % dedup_.size();
}

}  // namespace riot::net
