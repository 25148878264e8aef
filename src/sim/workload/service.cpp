#include "sim/workload/service.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace riot::sim::workload {
namespace {

using Result = net::RpcResult<ServeResponse>;
using Completion = net::RpcEndpoint::Completion;

// splitmix64 finalizer: deterministic per-request uniform for the
// local-hit decision (hashing beats an RNG draw here — the decision must
// not perturb any seeded stream, and must be stable per request across
// retries).
double hash01(std::uint64_t seq) {
  std::uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

Counter& tier_counter(obs::MetricsRegistry& registry, const std::string& name,
                      std::string_view help, Tier tier,
                      obs::Labels extra = {}) {
  obs::Labels labels = std::move(extra);
  labels.emplace_back("tier", std::string(to_string(tier)));
  return registry.counter_family(name, help).with(std::move(labels));
}

}  // namespace

std::string_view to_string(Tier tier) {
  switch (tier) {
    case Tier::kGateway:
      return "gateway";
    case Tier::kEdge:
      return "edge";
    case Tier::kCloud:
      return "cloud";
  }
  return "?";
}

std::string_view to_string(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kExpired:
      return "expired";
  }
  return "?";
}

TierServer::TierServer(net::Network& network, Tier tier,
                       AdmissionConfig admission)
    : net::Node(network),
      tier_(tier),
      rpc_(*this),
      admission_(network.simulation(), admission),
      requests_total_(tier_counter(network.metrics(),
                                   "riot_serving_requests_total",
                                   "requests entering a tier's admission "
                                   "queue",
                                   tier)),
      shed_full_total_(tier_counter(network.metrics(),
                                    "riot_serving_shed_total",
                                    "requests shed by tier admission",
                                    tier, {{"reason", "queue_full"}})),
      shed_expired_total_(tier_counter(network.metrics(),
                                       "riot_serving_shed_total", {}, tier,
                                       {{"reason", "expired"}})),
      downstream_failed_total_(
          tier_counter(network.metrics(),
                       "riot_serving_downstream_failed_total",
                       "admitted requests whose downstream call failed",
                       tier)) {
  set_component("serving");
  rpc_.serve_async<ServeRequest, ServeResponse>(
      [this](net::NodeId /*from*/, const ServeRequest& request,
             SimTime deadline, net::RpcResponder<ServeResponse> respond) {
        requests_total_.increment();
        auto serve = [this, request, deadline, respond] {
          serve_one(request, deadline, respond);
        };
        auto shed = [this, request, respond](ShedReason reason) {
          (reason == ShedReason::kQueueFull ? shed_full_total_
                                            : shed_expired_total_)
              .increment();
          respond(ServeResponse{request.seq, static_cast<std::uint8_t>(tier_),
                                false});
        };
        static_assert(AdmissionQueue::Served::stores_inline<decltype(serve)>());
        static_assert(AdmissionQueue::Shed::stores_inline<decltype(shed)>());
        admission_.offer(deadline, std::move(serve), std::move(shed));
      });
}

void TierServer::set_downstream(std::vector<net::NodeId> peers,
                                net::RpcOptions options) {
  downstream_ = std::move(peers);
  downstream_options_ = options;
}

void TierServer::serve_one(const ServeRequest& request, SimTime deadline,
                           net::RpcResponder<ServeResponse> respond) {
  const bool terminal =
      downstream_.empty() ||
      (local_fraction_ > 0.0 && hash01(request.seq) < local_fraction_);
  if (terminal) {
    ++served_local_;
    respond(
        ServeResponse{request.seq, static_cast<std::uint8_t>(tier_), true});
    return;
  }
  net::RpcOptions options = downstream_options_;
  if (deadline > kSimTimeZero) {
    const SimTime remaining = deadline - now();
    if (remaining <= kSimTimeZero) {
      // Budget burned in our own queue; fail fast rather than forwarding
      // work the caller has already abandoned.
      ++downstream_failed_;
      downstream_failed_total_.increment();
      respond(ServeResponse{request.seq, static_cast<std::uint8_t>(tier_),
                            false});
      return;
    }
    options.deadline = remaining;
  }
  ++forwarded_;
  auto done = [this, seq = request.seq, respond](Result r) {
    if (r.ok()) {
      respond(*r.value);  // propagate the terminating tier's answer
      return;
    }
    ++downstream_failed_;
    downstream_failed_total_.increment();
    respond(ServeResponse{seq, static_cast<std::uint8_t>(tier_), false});
  };
  static_assert(Completion::stores_inline<decltype(done)>());
  rpc_.call_result<ServeRequest, ServeResponse>(
      downstream_[request.client % downstream_.size()], request, options,
      std::move(done));
}

ServingFabric::ServingFabric(net::Network& network, FabricConfig config)
    : net_(network), config_(config) {
  auto build = [&](Tier tier, const TierSpec& spec, net::LinkClass cls,
                   std::vector<std::unique_ptr<TierServer>>& out) {
    out.reserve(spec.nodes);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      out.push_back(
          std::make_unique<TierServer>(network, tier, spec.admission));
      out.back()->set_local_fraction(spec.local_fraction);
      network.set_endpoint_class(out.back()->id(), cls);
    }
  };
  build(Tier::kCloud, config_.cloud, kCloudClass, clouds_);
  build(Tier::kEdge, config_.edge, kEdgeClass, edges_);
  build(Tier::kGateway, config_.gateway, kGatewayClass, gateways_);

  auto ids = [](const std::vector<std::unique_ptr<TierServer>>& tier) {
    std::vector<net::NodeId> out;
    out.reserve(tier.size());
    for (const auto& node : tier) out.push_back(node->id());
    return out;
  };
  const auto cloud_ids = ids(clouds_);
  const auto edge_ids = ids(edges_);
  for (auto& edge : edges_) {
    edge->set_downstream(cloud_ids, config_.edge_to_cloud);
  }
  for (auto& gateway : gateways_) {
    gateway->set_downstream(edge_ids, config_.gateway_to_edge);
  }

  // Link-class matrix (both directions per hop): client<->gateway LAN,
  // gateway<->edge MAN, edge<->cloud WAN.
  auto wire = [&](net::LinkClass a, net::LinkClass b,
                  const net::LinkQuality& quality) {
    network.set_class_link(a, b, quality);
    network.set_class_link(b, a, quality);
  };
  wire(kClientClass, kGatewayClass, config_.classes.lan);
  wire(kGatewayClass, kEdgeClass, config_.classes.man);
  wire(kEdgeClass, kCloudClass, config_.classes.wan);
}

void ServingFabric::attach_client(net::NodeId id) const {
  net_.set_endpoint_class(id, kClientClass);
}

std::vector<std::unique_ptr<TierServer>>& ServingFabric::tier(Tier tier) {
  switch (tier) {
    case Tier::kGateway:
      return gateways_;
    case Tier::kEdge:
      return edges_;
    case Tier::kCloud:
      break;
  }
  return clouds_;
}

TierStats ServingFabric::stats(Tier tier) const {
  const auto& nodes = tier == Tier::kGateway ? gateways_
                      : tier == Tier::kEdge  ? edges_
                                             : clouds_;
  TierStats stats;
  for (const auto& node : nodes) {
    const AdmissionQueue& q = node->admission();
    stats.offered += q.offered();
    stats.served += q.served();
    stats.shed_full += q.shed_full();
    stats.shed_expired += q.shed_expired();
    stats.served_local += node->served_local();
    stats.forwarded += node->forwarded();
    stats.downstream_failed += node->downstream_failed();
    stats.queue_high_water =
        std::max(stats.queue_high_water, q.queue_high_water());
  }
  return stats;
}

ClientBank::ClientBank(net::Network& network, ServingFabric& fabric,
                       net::RpcOptions options, obs::SloTracker& slo,
                       std::uint32_t bank_index)
    : net::Node(network),
      rpc_(*this),
      fabric_(fabric),
      options_(options),
      slo_(slo),
      next_seq_(static_cast<std::uint64_t>(bank_index) << 40) {
  set_component("client-bank");
  fabric.attach_client(id());
}

void ClientBank::issue(std::uint32_t client, Done done) {
  const std::uint64_t seq = ++next_seq_;
  const SimTime started = simulation().now();
  ++issued_;
  ++in_flight_;
  auto on_done = [this, started, done = std::move(done)](Result r) {
    --in_flight_;
    const bool ok = r.ok() && r.value->success;
    if (ok) ++succeeded_;
    slo_.record(simulation().now() - started, ok);
    if (done) done();
  };
  static_assert(Completion::stores_inline<decltype(on_done)>());
  rpc_.call_result<ServeRequest, ServeResponse>(fabric_.gateway_for(client),
                                                ServeRequest{seq, client},
                                                options_, std::move(on_done));
}

}  // namespace riot::sim::workload
