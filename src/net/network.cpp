#include "net/network.hpp"

#include <stdexcept>

namespace riot::net {

Network::Network(sim::Simulation& simulation, obs::MetricsRegistry& metrics,
                 obs::Tracer& tracer, sim::TraceLog& trace)
    : sim_(simulation),
      metrics_(metrics),
      tracer_(tracer),
      trace_(trace),
      rng_(simulation.rng().split("network")),
      component_(simulation.component_id("net")),
      link_model_([](NodeId, NodeId) { return LinkQuality{}; }),
      sent_total_(metrics
                      .counter_family("riot_net_sent_total",
                                      "messages submitted to the fabric")
                      .with({})),
      delivered_total_(metrics
                           .counter_family("riot_net_delivered_total",
                                           "messages delivered to a live "
                                           "endpoint")
                           .with({})),
      bytes_total_(metrics
                       .counter_family("riot_net_bytes_total",
                                       "estimated wire bytes submitted")
                       .with({})),
      dropped_partition_(metrics
                             .counter_family("riot_net_dropped_total",
                                             "messages dropped, by reason")
                             .with({{"reason", "partition"}})),
      dropped_loss_(metrics.counter_family("riot_net_dropped_total")
                        .with({{"reason", "loss"}})),
      dropped_dead_target_(metrics.counter_family("riot_net_dropped_total")
                               .with({{"reason", "dead_target"}})),
      dropped_byzantine_(metrics.counter_family("riot_net_dropped_total")
                             .with({{"reason", "byzantine"}})),
      duplicated_total_(metrics
                            .counter_family("riot_net_duplicated_total",
                                            "extra message copies injected "
                                            "by the duplication hook")
                            .with({})),
      falsified_total_(metrics
                           .counter_family("riot_net_falsified_total",
                                           "messages tainted by a Byzantine "
                                           "sender")
                           .with({})),
      latency_us_(metrics
                      .histogram_family("riot_net_latency_us",
                                        "simulated one-way message latency")
                      .with({})) {
  trace_.bind_clock(simulation);
}

NodeId Network::register_endpoint(DeliveryHandler handler) {
  if (!handler) {
    throw std::invalid_argument("Network::register_endpoint: empty handler");
  }
  const NodeId id{static_cast<std::uint32_t>(endpoints_.size())};
  endpoints_.push_back(Endpoint{std::move(handler), true, 0});
  return id;
}

void Network::set_link(NodeId from, NodeId to, LinkQuality quality) {
  link_overrides_[pair_key(from, to)] = quality;
}

void Network::clear_link_override(NodeId from, NodeId to) {
  link_overrides_.erase(pair_key(from, to));
}

void Network::set_endpoint_class(NodeId id, LinkClass cls) {
  if (cls >= kMaxLinkClasses) {
    throw std::invalid_argument("Network::set_endpoint_class: class too big");
  }
  endpoints_.at(id.value).link_class = cls;
}

void Network::set_class_link(LinkClass from, LinkClass to,
                             LinkQuality quality) {
  class_links_.set(from, to, quality);
}

LinkQuality Network::link_quality(NodeId from, NodeId to) const {
  // Resolution order: per-pair override, class-matrix cell, model function.
  // The common steady-state path (no overrides, classes wired) costs two
  // array loads — no hashing, no type-erased call.
  if (!link_overrides_.empty()) {
    if (auto it = link_overrides_.find(pair_key(from, to));
        it != link_overrides_.end()) {
      return it->second;
    }
  }
  if (class_links_.any() && from.value < endpoints_.size() &&
      to.value < endpoints_.size()) {
    if (const LinkQuality* q =
            class_links_.find(endpoints_[from.value].link_class,
                              endpoints_[to.value].link_class)) {
      return *q;
    }
  }
  return link_model_(from, to);
}

void Network::set_node_up(NodeId id, bool up) {
  auto& ep = endpoints_.at(id.value);
  if (ep.up == up) return;
  ep.up = up;
  if (!up) {
    // Open an incident: the span every downstream reaction (SWIM suspicion,
    // Raft election, orchestrator eviction) parents on. Child of the active
    // scope, so a fault-injection root owns the whole effect tree.
    const obs::SpanContext incident =
        tracer_.start_auto("net", "node_down", id.value);
    tracer_.open_incident(id.value, incident);
    trace_.event("net", "node_down").warn().node(id.value).span(incident);
  } else {
    const obs::SpanContext incident = tracer_.incident_of(id.value);
    tracer_.end(incident);
    tracer_.close_incident(id.value);
    trace_.event("net", "node_up").node(id.value).span(incident);
  }
}

bool Network::node_up(NodeId id) const {
  return id.value < endpoints_.size() && endpoints_[id.value].up;
}

void Network::partition(const std::vector<std::vector<NodeId>>& groups) {
  // Nodes not listed stay in group 0; listed nodes get 1-based groups so a
  // single-group call still splits them from the unlisted remainder.
  for (auto& ep : endpoints_) ep.group = 0;
  std::uint32_t g = 1;
  for (const auto& group : groups) {
    for (const NodeId id : group) endpoints_.at(id.value).group = g;
    ++g;
  }
  // Isolation survives a repartition: remember the node's home group under
  // the *new* layout (so unisolate rejoins the current partition, not a
  // stale pre-partition group), then re-apply the private group.
  for (auto& [id, saved_group] : isolated_) {
    saved_group = endpoints_[id].group;
    endpoints_[id].group = kIsolatedGroupBit | id;
  }
  partitioned_ = true;
  trace_.event("net", "partition")
      .warn()
      .detail(std::to_string(groups.size()) + " explicit groups");
}

void Network::isolate(NodeId id) {
  auto& ep = endpoints_.at(id.value);
  // emplace: a double isolate keeps the original saved group, so
  // isolate(x); isolate(x); unisolate(x) restores the true home group.
  isolated_.emplace(id.value, ep.group);
  ep.group = kIsolatedGroupBit | id.value;
  partitioned_ = true;
  trace_.event("net", "isolate").warn().node(id.value);
}

void Network::unisolate(NodeId id) {
  auto it = isolated_.find(id.value);
  if (it == isolated_.end()) return;
  endpoints_.at(id.value).group = it->second;
  isolated_.erase(it);
  if (isolated_.empty()) {
    // Still partitioned if explicit groups remain.
    bool any = false;
    for (const auto& ep : endpoints_) any = any || ep.group != 0;
    partitioned_ = any;
  }
  trace_.event("net", "unisolate").node(id.value);
}

void Network::heal_partition() {
  for (auto& ep : endpoints_) ep.group = 0;
  isolated_.clear();
  partitioned_ = false;
  (void)trace_.event("net", "heal");
}

bool Network::reachable(NodeId from, NodeId to) const {
  if (from.value >= endpoints_.size() || to.value >= endpoints_.size()) {
    return false;
  }
  if (!partitioned_) return true;
  return endpoints_[from.value].group == endpoints_[to.value].group;
}

std::uint64_t Network::submit(Message message) {
  if (message.from.value >= endpoints_.size() ||
      message.to.value >= endpoints_.size()) {
    throw std::out_of_range("Network::submit: unknown endpoint");
  }
  if (!endpoints_[message.from.value].up) return 0;  // dead senders say nothing
  message.id = next_message_id_++;
  sent_total_.increment();
  bytes_total_.increment(message.wire_size);

  // Causal-context rule: a send span exists only when a parent does —
  // either the caller pre-stamped the message or a tracer Scope is active.
  // Ambient protocol traffic (heartbeats, gossip fanout) carries none and
  // creates no spans.
  obs::SpanContext parent =
      message.span.valid() ? message.span : tracer_.current();
  if (parent.valid()) {
    message.span = tracer_.start_span(parent, "net", "send",
                                      message.from.value);
  }

  // Partition and loss are evaluated at send time; liveness of the target
  // at delivery time. (A message in flight when a partition starts still
  // arrives — the window is one latency, negligible at our scales.)
  if (!reachable(message.from, message.to)) {
    dropped_partition_.increment();
    if (message.span.valid()) {
      tracer_.annotate(message.span, "drop", "partition");
      tracer_.end(message.span);
    }
    return message.id;
  }
  const LinkQuality q = link_quality(message.from, message.to);
  const double loss = q.loss + ambient_loss_;
  if (loss > 0.0 && rng_.chance(loss)) {
    dropped_loss_.increment();
    if (message.span.valid()) {
      tracer_.annotate(message.span, "drop", "loss");
      tracer_.end(message.span);
    }
    return message.id;
  }
  // Byzantine sender behaviours. Selective drop happens *after* the send
  // accounting above (ack-then-discard: the sender believes it sent);
  // falsification leaves the payload intact and only raises the `tainted`
  // flag, so crash-fault protocols stay oblivious while verification-aware
  // receivers (RPC verification, trust scoring) can react.
  const Endpoint& sender = endpoints_[message.from.value];
  if (sender.selective_drop > 0.0 && rng_.chance(sender.selective_drop)) {
    dropped_byzantine_.increment();
    if (message.span.valid()) {
      tracer_.annotate(message.span, "drop", "byzantine");
      tracer_.end(message.span);
    }
    return message.id;
  }
  if (sender.falsify > 0.0 && rng_.chance(sender.falsify)) {
    message.tainted = true;
    falsified_total_.increment();
  }
  const sim::SimTime latency = sender_latency(q, sender);
  latency_us_.record_time(latency);
  const std::uint64_t id = message.id;
  // Duplication hook: an extra copy with its own latency draw. Guarded by
  // > 0 so the nominal path consumes no extra randomness (seed stability).
  // Move-only payloads cannot be duplicated; the latency draw still
  // happens (seed stability again), the copy is just not made.
  if (duplicate_probability_ > 0.0 && rng_.chance(duplicate_probability_)) {
    const sim::SimTime dup_latency = sender_latency(q, sender);
    if (message.payload.copyable()) {
      duplicated_total_.increment();
      Message copy = message;
      copy.span = {};  // the copy is ambient; never double-closes the send span
      schedule_delivery(std::move(copy), dup_latency);
    }
  }
  schedule_delivery(std::move(message), latency);
  return id;
}

sim::SimTime Network::sender_latency(const LinkQuality& q,
                                     const Endpoint& sender) {
  sim::SimTime latency = draw_latency(q, rng_);
  if (latency_factor_ != 1.0) {
    latency = sim::nanos(static_cast<std::int64_t>(
        static_cast<double>(latency.count()) * latency_factor_));
  }
  if (sender.delay_inflation != 1.0) {
    latency = sim::nanos(static_cast<std::int64_t>(
        static_cast<double>(latency.count()) * sender.delay_inflation));
  }
  return latency;
}

void Network::schedule_delivery(Message&& message, sim::SimTime latency) {
  const std::uint32_t slot = flight_.store(std::move(message));
  // {this, slot} rides inline in the event slot, so scheduling a delivery
  // never allocates.
  auto deliver = [this, slot] { this->deliver(flight_.take(slot)); };
  static_assert(sim::Simulation::Callback::stores_inline<decltype(deliver)>());
  sim_.schedule_after(latency, deliver, component_);
}

void Network::set_clock_skew(NodeId id, sim::SimTime skew) {
  auto& ep = endpoints_.at(id.value);
  if (ep.clock_skew == skew) return;
  ep.clock_skew = skew;
  trace_.event("net", "clock_skew")
      .warn()
      .node(id.value)
      .kv("skew_ns", skew.count());
}

sim::SimTime Network::clock_skew(NodeId id) const {
  return id.value < endpoints_.size() ? endpoints_[id.value].clock_skew
                                      : sim::kSimTimeZero;
}

void Network::set_falsify(NodeId id, double p) {
  auto& ep = endpoints_.at(id.value);
  if (ep.falsify == p) return;
  ep.falsify = p;
  trace_.event("net", "falsify").warn().node(id.value).kv(
      "pct", static_cast<std::int64_t>(p * 100.0));
}

double Network::falsify_probability(NodeId id) const {
  return id.value < endpoints_.size() ? endpoints_[id.value].falsify : 0.0;
}

void Network::set_selective_drop(NodeId id, double p) {
  auto& ep = endpoints_.at(id.value);
  if (ep.selective_drop == p) return;
  ep.selective_drop = p;
  trace_.event("net", "selective_drop").warn().node(id.value).kv(
      "pct", static_cast<std::int64_t>(p * 100.0));
}

double Network::selective_drop_probability(NodeId id) const {
  return id.value < endpoints_.size() ? endpoints_[id.value].selective_drop
                                      : 0.0;
}

void Network::set_delay_inflation(NodeId id, double factor) {
  auto& ep = endpoints_.at(id.value);
  if (ep.delay_inflation == factor) return;
  ep.delay_inflation = factor;
  trace_.event("net", "delay_inflate").warn().node(id.value).kv(
      "pct", static_cast<std::int64_t>(factor * 100.0));
}

double Network::delay_inflation(NodeId id) const {
  return id.value < endpoints_.size() ? endpoints_[id.value].delay_inflation
                                      : 1.0;
}

void Network::deliver(Message message) {
  auto& ep = endpoints_[message.to.value];
  if (!ep.up) {
    dropped_dead_target_.increment();
    if (message.span.valid()) {
      tracer_.annotate(message.span, "drop", "dead_target");
      tracer_.end(message.span);
    }
    return;
  }
  delivered_total_.increment();
  if (message.span.valid()) {
    // The deliver span wraps the handler as the active scope, so anything
    // the receiver does in response — replies, state changes, timers armed
    // via Node::after — joins the sender's trace.
    const obs::SpanContext deliver_span =
        tracer_.start_span(message.span, "net", "deliver", message.to.value);
    {
      obs::Tracer::Scope scope(tracer_, deliver_span);
      ep.handler(message);
    }
    tracer_.end(deliver_span);
    tracer_.end(message.span);
  } else {
    ep.handler(message);
  }
}

}  // namespace riot::net
