// Simulated network fabric.
//
// The Network delivers typed messages between registered endpoints subject
// to a link model (latency, jitter, loss), network partitions, and per-node
// liveness — the substrate on which the paper's disruptions ("connectivity
// to cloud control structures may not be persistent") are exercised.
//
// The link model (LinkQuality, the LAN/MAN/WAN latency classes, the
// class-pair table, the jitter draw and the in-flight slab) lives in
// net/link.hpp and is shared with the sharded fabric. The mapping from node
// pairs to classes is pluggable; src/core wires it from device locations
// and classes.
//
// Observability: metrics are handle-based (`riot_net_*` references resolved
// once in the constructor — the send/deliver hot path never pays a name
// lookup). Spans follow the causal-context rule: a send/deliver span pair
// is created only when a causal parent exists (the message already carries
// a SpanContext, or a tracer Scope is active) so ambient protocol chatter
// stays out of traces. A node going down opens an incident span that
// downstream detectors parent their reactions on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/message.hpp"
#include "net/node_id.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace riot::net {

class Network {
 public:
  using DeliveryHandler = std::function<void(const Message&)>;
  using LinkModel = std::function<LinkQuality(NodeId from, NodeId to)>;

  Network(sim::Simulation& simulation, obs::MetricsRegistry& metrics,
          obs::Tracer& tracer, sim::TraceLog& trace);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register an endpoint; the handler is invoked on delivery. Returns the
  /// assigned id.
  NodeId register_endpoint(DeliveryHandler handler);

  /// Replace the function mapping node pairs to link quality. Per-pair
  /// overrides (set_link) take precedence.
  void set_link_model(LinkModel model) { link_model_ = std::move(model); }

  /// Override quality of the directed link from -> to.
  void set_link(NodeId from, NodeId to, LinkQuality quality);
  void clear_link_override(NodeId from, NodeId to);

  /// Assign an endpoint's link class (default 0). Together with
  /// set_class_link this enables the cached resolution path: per-pair
  /// overrides still win, but the class matrix is consulted before the
  /// link-model function, so steady-state traffic pays no hash lookup and
  /// no type-erased call. Cells not populated fall through to the model.
  void set_endpoint_class(NodeId id, LinkClass cls);
  void set_class_link(LinkClass from, LinkClass to, LinkQuality quality);

  /// Send a typed payload. Returns the message id (0 if dropped at source
  /// because the sender is down).
  template <typename T>
  std::uint64_t send(NodeId from, NodeId to, T payload) {
    return submit(make_message(from, to, std::move(payload)));
  }

  /// Lower-level entry used by the typed helpers and by Endpoint.
  std::uint64_t submit(Message message);

  // --- Liveness -----------------------------------------------------------
  // Idempotent. Going down opens a "net/node_down" incident span (parented
  // on the active scope — e.g. a fault-injection root); coming back up
  // closes it.
  void set_node_up(NodeId id, bool up);
  [[nodiscard]] bool node_up(NodeId id) const;

  // --- Partitions ---------------------------------------------------------
  // A partition assigns nodes to groups; messages cross groups only if the
  // partition allows none (healed). Nodes not mentioned keep group 0.
  // Isolation composes with partitions: an isolated node stays isolated
  // across a repartition, and unisolate rejoins it to its group under the
  // *current* partition layout. heal_partition() lifts everything,
  // isolation included.
  void partition(const std::vector<std::vector<NodeId>>& groups);
  /// Isolate a single node from everyone else (degenerate partition).
  void isolate(NodeId id);
  void unisolate(NodeId id);
  void heal_partition();
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const;

  /// Additional global loss applied on top of link loss (disturbance
  /// injection; 0 = none, 1 = total blackout).
  void set_ambient_loss(double loss) { ambient_loss_ = loss; }
  [[nodiscard]] double ambient_loss() const { return ambient_loss_; }

  // --- Disturbance hooks (chaos harness) ----------------------------------
  /// Multiply every link latency (base + jitter) by `factor` (congestion /
  /// degraded-backhaul injection; 1 = nominal).
  void set_latency_factor(double factor) { latency_factor_ = factor; }
  [[nodiscard]] double latency_factor() const { return latency_factor_; }

  /// With probability `p`, deliver an extra copy of each non-dropped
  /// message after an independently drawn latency (at-least-once links;
  /// protocols must tolerate duplicates). 0 disables and — important for
  /// reproducibility — consumes no randomness.
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }
  [[nodiscard]] double duplicate_probability() const {
    return duplicate_probability_;
  }

  /// Fixed clock offset for a node: Node::now() (and thus every timestamp
  /// the node stamps — LWW writes, telemetry sampled_at) reads sim time +
  /// skew. Rates are unaffected (offset-only skew model).
  void set_clock_skew(NodeId id, sim::SimTime skew);
  [[nodiscard]] sim::SimTime clock_skew(NodeId id) const;

  // --- Byzantine sender behaviours (chaos harness) -------------------------
  // Per-endpoint misbehaviour knobs, all modelling a *compromised sender*
  // rather than a failed link. Each draw is guarded by > 0 so honest runs
  // consume no randomness (seed stability, like the duplication hook).
  /// With probability `p`, mark each outbound message `tainted` — the
  /// payload bytes are untouched, so only verification-aware receivers
  /// (RPC result verification, trust scoring) react; crash-fault protocols
  /// are deliberately oblivious.
  void set_falsify(NodeId id, double p);
  [[nodiscard]] double falsify_probability(NodeId id) const;
  /// With probability `p`, silently discard each outbound message *after*
  /// send accounting (ack-then-discard: the sender believes it sent).
  void set_selective_drop(NodeId id, double p);
  [[nodiscard]] double selective_drop_probability(NodeId id) const;
  /// Multiply the sender's outbound latency by `factor` (1 = nominal).
  void set_delay_inflation(NodeId id, double factor);
  [[nodiscard]] double delay_inflation(NodeId id) const;

  /// Effective quality of the directed link (override, else model).
  [[nodiscard]] LinkQuality link_quality(NodeId from, NodeId to) const;

  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] sim::TraceLog& trace() { return trace_; }

  [[nodiscard]] std::uint64_t messages_sent() const {
    return sent_total_.value();
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_total_.value();
  }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return dropped_partition_.value() + dropped_loss_.value() +
           dropped_dead_target_.value() + dropped_byzantine_.value();
  }
  [[nodiscard]] std::uint64_t messages_duplicated() const {
    return duplicated_total_.value();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_total_.value();
  }

 private:
  struct Endpoint {
    DeliveryHandler handler;
    bool up = true;
    LinkClass link_class = 0;
    std::uint32_t group = 0;
    sim::SimTime clock_skew = sim::kSimTimeZero;
    // Byzantine sender knobs (see the setters above).
    double falsify = 0.0;
    double selective_drop = 0.0;
    double delay_inflation = 1.0;
  };

  // Isolation marks a node with a private group far above explicit
  // partition group numbers.
  static constexpr std::uint32_t kIsolatedGroupBit = 0x8000'0000u;

  void deliver(Message message);
  // One latency draw over `q`, scaled by the latency factor and then by the
  // sender's delay inflation, truncating to whole nanoseconds at each step.
  sim::SimTime sender_latency(const LinkQuality& q, const Endpoint& sender);
  void schedule_delivery(Message&& message, sim::SimTime latency);

  sim::Simulation& sim_;
  obs::MetricsRegistry& metrics_;
  obs::Tracer& tracer_;
  sim::TraceLog& trace_;
  sim::Rng rng_;
  sim::ComponentId component_;
  std::vector<Endpoint> endpoints_;
  FlightSlab flight_;
  LinkModel link_model_;
  std::unordered_map<std::uint64_t, LinkQuality> link_overrides_;
  ClassLinkTable class_links_;
  std::unordered_map<std::uint32_t, std::uint32_t> isolated_;  // id -> saved group
  bool partitioned_ = false;
  double ambient_loss_ = 0.0;
  double latency_factor_ = 1.0;
  double duplicate_probability_ = 0.0;
  std::uint64_t next_message_id_ = 1;

  // Metric handles, resolved once at construction (see obs/metrics.hpp).
  sim::Counter& sent_total_;
  sim::Counter& delivered_total_;
  sim::Counter& bytes_total_;
  sim::Counter& dropped_partition_;
  sim::Counter& dropped_loss_;
  sim::Counter& dropped_dead_target_;
  sim::Counter& dropped_byzantine_;
  sim::Counter& duplicated_total_;
  sim::Counter& falsified_total_;
  sim::Histogram& latency_us_;

  static std::uint64_t pair_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }
};

}  // namespace riot::net
