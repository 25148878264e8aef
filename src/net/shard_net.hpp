// Shard-aware network fabric over the sharded kernel.
//
// ShardedNetwork is the delivery substrate for 100k+-endpoint runs: global
// endpoint ids, but every per-message resource partitioned by shard — each
// shard owns an in-flight message slab, plain counters, and a RunHash, so
// the send → flight slab → dispatch hot path never crosses a cache line
// another worker writes. Cross-shard sends are buffered in per-(src, dst)
// outboxes and exchanged at the kernel's window barrier, enqueued into the
// destination shard sorted by (deliver time, message id) — message ids are
// (sender << 32 | sender sequence), so the order is canonical, not an
// arrival race.
//
// Shard-count invariance (the determinism matrix in
// tests/test_net_sharded.cpp): every random draw on the message path —
// loss, jitter — comes from a per-endpoint Rng derived statelessly from
// (kernel seed, endpoint id), never from a shared stream consumed in
// global arrival order and never from a shard's own rng. A (seed, config)
// run therefore executes the identical message set at 1, 2, 4, or 8
// shards: bit-identical sent/delivered/dropped counts and an identical
// order-invariant delivery hash.
//
// Scope: this is the scale fabric, deliberately leaner than net::Network —
// it shares Network's link model (net/link.hpp: LinkQuality, the class-pair
// table, the jitter draw, the flight slab) but resolves links through the
// class table only (no per-pair overrides, no partitions, no span tracing
// on the hot path), and liveness flags are owned by the endpoint's home
// shard. Topology (endpoints, classes, class links, ambient loss) is wired
// single-threaded before seal(); after seal() only message traffic and
// owner-shard liveness toggles are legal, and the topology setters throw.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link.hpp"
#include "net/message.hpp"
#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"

namespace riot::net {

class ShardedNetwork {
 public:
  using DeliveryHandler = std::function<void(const Message&)>;

  explicit ShardedNetwork(sim::ShardedSimulation& kernel);

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  /// Register an endpoint on an explicit shard (partitioning is the
  /// caller's: keep chatty neighborhoods — clusters, cells — on one shard
  /// so cross-shard traffic stays the long-haul minority).
  NodeId register_endpoint(std::size_t shard, DeliveryHandler handler);

  /// Class wiring, exactly as net::Network: per-endpoint class plus a
  /// (from, to) class table. A cell never set resolves to LinkQuality{}.
  /// Pre-seal only: every shard reads the routes and the table.
  void set_endpoint_class(NodeId id, LinkClass cls);
  void set_class_link(LinkClass from, LinkClass to, LinkQuality quality);

  /// Extra loss applied on top of link loss. Pre-seal only (a mid-run
  /// change would be observed at different windows on different shards).
  void set_ambient_loss(double loss);

  /// Freeze topology and derive the kernel lookahead (minimum base latency
  /// any cross-shard message can draw, from the class cells reachable by
  /// registered endpoints). Call once, before the first run.
  void seal();

  /// Send a typed payload. Returns the message id, 0 if the sender is
  /// down. Callable from the sending endpoint's shard (or pre-run).
  template <typename T>
  std::uint64_t send(NodeId from, NodeId to, T payload) {
    return submit(make_message(from, to, std::move(payload)));
  }
  std::uint64_t submit(Message message);

  /// Liveness. Owned by the endpoint's home shard: call from that shard's
  /// events (or pre-run). Messages to a down endpoint drop at delivery.
  void set_node_up(NodeId id, bool up);
  [[nodiscard]] bool node_up(NodeId id) const;

  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] std::size_t shard_of(NodeId id) const {
    return routes_[id.value].shard;
  }
  [[nodiscard]] sim::ShardedSimulation& kernel() { return kernel_; }
  [[nodiscard]] sim::SimTime lookahead() const { return lookahead_; }

  // Merged (post-run / between windows) counters.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t messages_delivered() const;
  [[nodiscard]] std::uint64_t messages_dropped() const;
  [[nodiscard]] std::uint64_t messages_cross_shard() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;

  /// Order-invariant fingerprint of every delivery (time, message id,
  /// destination, payload kind) — the seed-stable trace hash the
  /// determinism matrix compares across shard counts.
  [[nodiscard]] std::uint64_t delivery_hash() const;

 private:
  // Where an endpoint lives and how it links: fixed by seal(), then only
  // read — by every shard that sends to it — so it is kept apart from the
  // state the endpoint's own shard writes on every send.
  struct EndpointRoute {
    std::uint32_t shard = 0;
    LinkClass link_class = 0;
  };

  // Touched only by the endpoint's home shard (or between runs).
  struct EndpointState {
    DeliveryHandler handler;
    bool up = true;
    std::uint32_t next_seq = 0;  // per-sender message sequence
    sim::Rng rng;                // derived from (kernel seed, endpoint id)
  };

  struct FlightEntry {
    sim::SimTime at;  // absolute delivery time
    Message msg;
  };

  // Where an inbound entry sits, with its canonical (time, id) order key:
  // the exchange sorts these, then moves each message once.
  struct InboundRef {
    sim::SimTime at;
    std::uint64_t id;
    std::uint32_t src;    // source shard
    std::uint32_t index;  // position in the source's outbox
  };

  // One cross-shard buffer, alone on its cache lines: its source fills it
  // while other shards drain their own.
  struct alignas(64) Outbox {
    std::vector<FlightEntry> entries;
  };

  // Everything a worker touches per message lives here, one cache-line
  // aligned block per shard.
  struct alignas(64) ShardState {
    FlightSlab flight;
    // outbox[side * shard_count + dst]: the kernel's two buffer sides.
    std::vector<Outbox> outbox;
    std::vector<InboundRef> merge_scratch;
    sim::ComponentId component = sim::kAnonymousComponent;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cross = 0;  // cross-shard sends originated here
    std::uint64_t bytes = 0;
    sim::RunHash hash;
  };

  [[nodiscard]] LinkQuality link_quality(LinkClass from, LinkClass to) const {
    const LinkQuality* q = class_links_.find(from, to);
    return q != nullptr ? *q : LinkQuality{};
  }
  // Throws std::logic_error once seal() ran.
  void check_unsealed(const char* what) const;

  void deliver_flight(std::uint32_t shard, std::uint32_t slot);
  void schedule_delivery(std::uint32_t dst_shard, sim::SimTime at,
                         Message&& message);
  void merge_inbound(std::size_t dst_shard, std::size_t side);

  sim::ShardedSimulation& kernel_;
  std::vector<EndpointRoute> routes_;
  std::vector<EndpointState> endpoints_;
  std::vector<ShardState> shards_;
  ClassLinkTable class_links_;
  double ambient_loss_ = 0.0;
  sim::SimTime lookahead_ = sim::kSimTimeZero;
  bool sealed_ = false;
};

}  // namespace riot::net
