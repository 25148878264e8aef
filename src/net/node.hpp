// Protocol node base class.
//
// A Node is one software component with an address on the Network. It
// provides:
//   - typed message handlers:       on<Ping>([](NodeId from, const Ping&){...})
//   - typed sends:                  send(peer, Pong{...})
//   - crash-safe timers:            after(...)/every(...) are silently
//     dropped once the node crashes (epoch check), matching the semantics
//     of a process losing its in-memory state
//   - a lifecycle:                  crash()/recover() with on_start /
//     on_crash / on_recover virtuals. State that must survive a crash
//     (e.g. Raft's persistent term/log) lives *outside* the node in an
//     explicitly persistent store.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/network.hpp"
#include "net/node_id.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace riot::net {

class Node {
 public:
  /// Registers with the network. The node starts alive; on_start() is NOT
  /// called from the constructor (the subclass is not constructed yet) —
  /// call start() after construction.
  explicit Node(Network& network)
      : net_(network),
        sim_(network.simulation()),
        dispatch_unknown_total_(
            network.metrics()
                .counter_family("riot_net_dispatch_unknown_total",
                                "deliveries whose payload kind had no "
                                "registered handler on the target node")
                .with({})) {
    id_ = net_.register_endpoint(
        [this](const Message& m) { dispatch(m); });
  }

  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }
  /// The node's *local* clock: sim time plus any injected skew (see
  /// Network::set_clock_skew). Timestamps this node stamps (LWW writes,
  /// telemetry) wear the skew; timer rates are unaffected.
  [[nodiscard]] sim::SimTime now() const {
    return sim_.now() + net_.clock_skew(id_);
  }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

  /// Invoke after construction to run on_start().
  void start() { on_start(); }

  /// Crash: the node loses all volatile behaviour — handlers stay
  /// registered but messages are not delivered (network drops them), and
  /// all pending timers are invalidated.
  void crash() {
    if (!alive_) return;
    alive_ = false;
    ++epoch_;
    net_.set_node_up(id_, false);
    on_crash();
  }

  /// Recover from a crash; bumps the epoch (old timers stay dead) and
  /// calls on_recover() so the subclass can re-arm from persistent state.
  void recover() {
    if (alive_) return;
    alive_ = true;
    ++epoch_;
    net_.set_node_up(id_, true);
    on_recover();
  }

  /// Register a handler for payload type T. Handlers live in a flat table
  /// indexed by the payload's kind tag, so dispatch is one bounds check and
  /// one indexed load — no type hashing on the delivery path.
  template <Payload T>
  void on(std::function<void(NodeId from, const T&)> handler) {
    const PayloadKind kind = payload_kind_of<T>();
    if (handlers_.size() <= kind) handlers_.resize(kind + 1);
    handlers_[kind] = [handler = std::move(handler)](const Message& m) {
      // dispatch() matched the kind; skip the re-check.
      handler(m.from, m.payload.as_unchecked<T>());
    };
  }

  /// Like on<T>, but the handler also sees the Message envelope — for
  /// receivers that care about transport-level facts (the `tainted` flag,
  /// wire size, span) in addition to the typed payload.
  template <Payload T>
  void on_message(std::function<void(const Message&, const T&)> handler) {
    const PayloadKind kind = payload_kind_of<T>();
    if (handlers_.size() <= kind) handlers_.resize(kind + 1);
    handlers_[kind] = [handler = std::move(handler)](const Message& m) {
      handler(m, m.payload.as_unchecked<T>());
    };
  }

  /// Send a typed payload to a peer. No-op (returns 0) while crashed.
  template <typename T>
  std::uint64_t send(NodeId to, T payload) {
    if (!alive_) return 0;
    return net_.send(id_, to, std::move(payload));
  }

  /// One-shot timer that dies with the node's current epoch. The timer
  /// captures the causal context active when it was armed (e.g. the
  /// delivery that started it) and re-activates it when it fires, so
  /// timeout-driven reactions stay in the originating trace. `fn` is
  /// captured directly into the event slot: no second type-erased wrapper.
  template <typename F>
  sim::EventId after(sim::SimTime delay, F&& fn) {
    return sim_.schedule_after(
        delay,
        Timer<std::decay_t<F>>{this, epoch_, net_.tracer().current(),
                               std::forward<F>(fn)},
        component_);
  }

  /// True when after(delay, F{}) keeps the whole timer inside the event
  /// slot. Per-request timers static_assert it.
  template <typename F>
  static constexpr bool timer_stores_inline() {
    return sim::Simulation::Callback::stores_inline<Timer<F>>();
  }

  /// Periodic timer that dies with the node's current epoch. Returns the
  /// id for cancellation; a crashed node's periodic timers self-cancel.
  /// Deliberately does NOT capture causal context — periodic behaviour is
  /// ambient, not an effect of whatever happened to be in scope at arm
  /// time.
  template <typename F>
  sim::EventId every(sim::SimTime period, F&& fn) {
    return sim_.schedule_every(
        period,
        [this, epoch = epoch_, fn = std::forward<F>(fn)]() mutable {
          if (!alive_ || epoch_ != epoch) {
            sim_.cancel(sim_.current_event());
            return;
          }
          fn();
        },
        component_);
  }

  void cancel(sim::EventId id) { sim_.cancel(id); }

 protected:
  virtual void on_start() {}
  virtual void on_crash() {}
  virtual void on_recover() {}

  /// Tag this node's timers with a component for the sim profiler
  /// (riot_sim_events_total{component=...}). Call once from the subclass
  /// constructor.
  void set_component(std::string_view name) {
    component_ = sim_.component_id(name);
  }
  [[nodiscard]] obs::Tracer& tracer() { return net_.tracer(); }

  /// Called for payload types with no registered handler; default ignores.
  /// Unknown-kind deliveries are never silent: each one bumps
  /// riot_net_dispatch_unknown_total and emits a warn trace event naming
  /// the kind before this hook runs.
  virtual void on_unhandled(const Message&) {}

 private:
  // What after() schedules: the epoch guard and the causal context around
  // the caller's callable, in one object.
  template <typename F>
  struct Timer {
    Node* node;
    std::uint64_t epoch;
    obs::SpanContext ctx;
    F fn;

    void operator()() {
      if (!node->alive_ || node->epoch_ != epoch) return;
      if (ctx.valid()) {
        obs::Tracer::Scope scope(node->net_.tracer(), ctx);
        fn();
      } else {
        fn();
      }
    }
  };

  void dispatch(const Message& m) {
    if (!alive_) return;
    const PayloadKind kind = m.kind();
    if (kind < handlers_.size()) {
      if (const auto& handler = handlers_[kind]; handler) {
        handler(m);
        return;
      }
    }
    dispatch_unknown_total_.increment();
    net_.trace()
        .event("net", "dispatch_unknown")
        .warn()
        .node(id_.value)
        .kv("kind", kind)
        .kv("type", m.payload.type_name());
    on_unhandled(m);
  }

  Network& net_;
  sim::Simulation& sim_;
  sim::Counter& dispatch_unknown_total_;
  NodeId id_;
  sim::ComponentId component_ = sim::kAnonymousComponent;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  // Flat dispatch table: index = PayloadKind. Sized to the highest kind
  // this node registered; kinds beyond it are unknown here by definition.
  std::vector<std::function<void(const Message&)>> handlers_;
};

}  // namespace riot::net
