#include "net/shard_net.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <tuple>

namespace riot::net {

namespace {

sim::Rng endpoint_rng(std::uint64_t kernel_seed, std::uint32_t endpoint) {
  // Stateless per-endpoint stream: must not depend on registration order,
  // shard placement, or shard count — this is what makes a run's loss and
  // jitter draws identical at every shard count.
  std::uint64_t state =
      kernel_seed ^
      (0xaf251af3b0f025b5ULL * (static_cast<std::uint64_t>(endpoint) + 1));
  return sim::Rng{sim::splitmix64(state)};
}

}  // namespace

ShardedNetwork::ShardedNetwork(sim::ShardedSimulation& kernel)
    : kernel_(kernel) {
  shards_.resize(kernel.shard_count());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState& ss = shards_[i];
    ss.component = kernel.shard(i).component_id("net");
    ss.outbox.resize(2 * shards_.size());
  }
  // Installed here, not by seal(): a fabric that is never sealed still
  // buffers cross-shard sends, and only this hook drains them.
  kernel_.set_exchange([this](std::size_t dst, std::size_t side) {
    merge_inbound(dst, side);
  });
}

void ShardedNetwork::check_unsealed(const char* what) const {
  if (sealed_) {
    throw std::logic_error(std::string("ShardedNetwork::") + what +
                           ": topology is sealed");
  }
}

NodeId ShardedNetwork::register_endpoint(std::size_t shard,
                                         DeliveryHandler handler) {
  check_unsealed("register_endpoint");
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedNetwork::register_endpoint: bad shard");
  }
  if (!handler) {
    throw std::invalid_argument(
        "ShardedNetwork::register_endpoint: empty handler");
  }
  const auto id = static_cast<std::uint32_t>(endpoints_.size());
  EndpointState ep;
  ep.handler = std::move(handler);
  ep.rng = endpoint_rng(kernel_.seed(), id);
  endpoints_.push_back(std::move(ep));
  routes_.push_back(EndpointRoute{static_cast<std::uint32_t>(shard), 0});
  return NodeId{id};
}

void ShardedNetwork::set_endpoint_class(NodeId id, LinkClass cls) {
  check_unsealed("set_endpoint_class");
  if (cls >= kMaxLinkClasses) {
    throw std::invalid_argument(
        "ShardedNetwork::set_endpoint_class: class too big");
  }
  routes_.at(id.value).link_class = cls;
}

void ShardedNetwork::set_class_link(LinkClass from, LinkClass to,
                                    LinkQuality quality) {
  check_unsealed("set_class_link");
  class_links_.set(from, to, quality);
}

void ShardedNetwork::set_ambient_loss(double loss) {
  check_unsealed("set_ambient_loss");
  ambient_loss_ = loss;
}

void ShardedNetwork::seal() {
  if (sealed_) return;
  // Conservative lookahead: the smallest base latency any cross-shard
  // message can draw. Walk the class pairs actually reachable by
  // registered endpoints; a pair without a set cell resolves to
  // LinkQuality{}, which then takes part like any other cell.
  std::array<bool, kMaxLinkClasses> class_used{};
  for (const EndpointRoute& route : routes_) {
    class_used[route.link_class] = true;
  }
  sim::SimTime min_latency = kernel_.shard_count() > 1 ? sim::kSimTimeMax
                                                       : sim::kSimTimeZero;
  if (kernel_.shard_count() > 1) {
    for (std::size_t f = 0; f < kMaxLinkClasses; ++f) {
      if (!class_used[f]) continue;
      for (std::size_t t = 0; t < kMaxLinkClasses; ++t) {
        if (!class_used[t]) continue;
        const LinkQuality q = link_quality(static_cast<LinkClass>(f),
                                           static_cast<LinkClass>(t));
        min_latency = std::min(min_latency, q.base_latency);
      }
    }
    if (min_latency == sim::kSimTimeMax) min_latency = sim::kSimTimeZero;
  }
  lookahead_ = min_latency;
  kernel_.set_lookahead(lookahead_);
  sealed_ = true;
}

std::uint64_t ShardedNetwork::submit(Message message) {
  if (message.from.value >= endpoints_.size() ||
      message.to.value >= endpoints_.size()) {
    throw std::out_of_range("ShardedNetwork::submit: unknown endpoint");
  }
  EndpointState& src = endpoints_[message.from.value];
  if (!src.up) return 0;  // dead senders say nothing
  const EndpointRoute& from = routes_[message.from.value];
  const EndpointRoute& to = routes_[message.to.value];
  ShardState& ss = shards_[from.shard];
  // (sender << 32 | sender seq): unique, and invariant across shard counts
  // — the canonical cross-shard ordering key.
  message.id = (static_cast<std::uint64_t>(message.from.value) << 32) |
               src.next_seq++;
  ++ss.sent;
  ss.bytes += message.wire_size;

  const LinkQuality q = link_quality(from.link_class, to.link_class);
  const double loss = q.loss + ambient_loss_;
  if (loss > 0.0 && src.rng.chance(loss)) {
    ++ss.dropped;
    return message.id;
  }
  const sim::SimTime latency = draw_latency(q, src.rng);
  const std::uint64_t id = message.id;
  const sim::SimTime at = kernel_.shard(from.shard).now() + latency;
  if (to.shard != from.shard) {
    // The seal()-derived lookahead must bound every cross-shard latency;
    // anything tighter breaks the window protocol, so refuse loudly.
    if (latency < lookahead_) {
      throw std::logic_error(
          "ShardedNetwork::submit: cross-shard latency below lookahead");
    }
    ++ss.cross;
    if (kernel_.running()) {
      ss.outbox[kernel_.write_side() * shards_.size() + to.shard]
          .entries.emplace_back(at, std::move(message));
      kernel_.note_outbound(from.shard, at);
      return id;
    }
    // Between runs no shard executes: deliver through the destination's
    // queue directly.
  }
  schedule_delivery(to.shard, at, std::move(message));
  return id;
}

void ShardedNetwork::schedule_delivery(std::uint32_t dst_shard,
                                       sim::SimTime at, Message&& message) {
  ShardState& ss = shards_[dst_shard];
  const std::uint32_t slot = ss.flight.store(std::move(message));
  // {this, shard, slot} rides inline in the event slot, so a delivery
  // never allocates.
  kernel_.shard(dst_shard).schedule_at(
      at, [this, dst_shard, slot] { deliver_flight(dst_shard, slot); },
      ss.component);
}

void ShardedNetwork::deliver_flight(std::uint32_t shard, std::uint32_t slot) {
  ShardState& ss = shards_[shard];
  const Message message = ss.flight.take(slot);
  EndpointState& ep = endpoints_[message.to.value];
  if (!ep.up) {
    ++ss.dropped;
    return;
  }
  ++ss.delivered;
  // Order-invariant delivery fingerprint: (time, id, destination, kind)
  // identifies the delivery independent of which shard executed it.
  ss.hash.mix(
      static_cast<std::uint64_t>(kernel_.shard(shard).now().count()),
      message.id, message.to.value, message.kind());
  ep.handler(message);
}

void ShardedNetwork::merge_inbound(std::size_t dst_shard, std::size_t side) {
  const std::size_t shards = shards_.size();
  std::vector<InboundRef>& refs = shards_[dst_shard].merge_scratch;
  refs.clear();
  for (std::size_t src = 0; src < shards; ++src) {
    const std::vector<FlightEntry>& ob =
        shards_[src].outbox[side * shards + dst_shard].entries;
    for (std::size_t i = 0; i < ob.size(); ++i) {
      refs.push_back(InboundRef{ob[i].at, ob[i].msg.id,
                                static_cast<std::uint32_t>(src),
                                static_cast<std::uint32_t>(i)});
    }
  }
  if (refs.empty()) return;
  // Canonical delivery order: (timestamp, message id). Message ids embed
  // (sender, sender seq), so this is a total order that does not depend
  // on shard count or arrival interleaving.
  std::sort(refs.begin(), refs.end(),
            [](const InboundRef& a, const InboundRef& b) {
              return std::tie(a.at, a.id) < std::tie(b.at, b.id);
            });
  for (const InboundRef& ref : refs) {
    FlightEntry& fe =
        shards_[ref.src].outbox[side * shards + dst_shard].entries[ref.index];
    schedule_delivery(static_cast<std::uint32_t>(dst_shard), fe.at,
                      std::move(fe.msg));
  }
  for (std::size_t src = 0; src < shards; ++src) {
    shards_[src].outbox[side * shards + dst_shard].entries.clear();
  }
  refs.clear();
}

void ShardedNetwork::set_node_up(NodeId id, bool up) {
  endpoints_.at(id.value).up = up;
}

bool ShardedNetwork::node_up(NodeId id) const {
  return id.value < endpoints_.size() && endpoints_[id.value].up;
}

std::uint64_t ShardedNetwork::messages_sent() const {
  std::uint64_t total = 0;
  for (const ShardState& ss : shards_) total += ss.sent;
  return total;
}

std::uint64_t ShardedNetwork::messages_delivered() const {
  std::uint64_t total = 0;
  for (const ShardState& ss : shards_) total += ss.delivered;
  return total;
}

std::uint64_t ShardedNetwork::messages_dropped() const {
  std::uint64_t total = 0;
  for (const ShardState& ss : shards_) total += ss.dropped;
  return total;
}

std::uint64_t ShardedNetwork::messages_cross_shard() const {
  std::uint64_t total = 0;
  for (const ShardState& ss : shards_) total += ss.cross;
  return total;
}

std::uint64_t ShardedNetwork::bytes_sent() const {
  std::uint64_t total = 0;
  for (const ShardState& ss : shards_) total += ss.bytes;
  return total;
}

std::uint64_t ShardedNetwork::delivery_hash() const {
  sim::RunHash merged;
  for (const ShardState& ss : shards_) merged.merge(ss.hash);
  return merged.digest();
}

}  // namespace riot::net
