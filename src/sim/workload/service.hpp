// Three-tier gateway -> edge -> cloud serving graph over the resilient RPC
// fabric.
//
// The serving bench's system under test. Requests enter at a gateway
// (client-facing, LAN), which forwards to an edge site (MAN) unless it can
// answer locally; edges forward misses to the cloud (WAN). Every tier runs
// the same machinery:
//
//   RpcEndpoint::serve_async  ->  AdmissionQueue  ->  serve locally or
//                                                     call_result downstream
//
// so the end-to-end path exercises deadline budgets (the caller's absolute
// deadline rides the request envelope; each hop forwards only the
// *remaining* budget), retries + breakers on inter-tier calls, and
// per-tier bounded-queue backpressure with EDF priority and
// shed-on-deadline-exceeded (admission.hpp). Shed or failed requests are
// answered with success=false immediately — fail-fast beats silence, and it
// keeps client-side latency accounting honest.
//
// Topology scale note: clients are *logical* (generator indices); physical
// client traffic enters through a small number of ClientBank nodes, each
// multiplexing many logical users over one RpcEndpoint. That is what lets a
// 1M-client rung run with a few hundred Nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "obs/slo.hpp"
#include "sim/workload/admission.hpp"

namespace riot::sim::workload {

/// One serving request; `seq` is globally unique (routing + cache-hit salt).
struct ServeRequest {
  std::uint64_t seq = 0;
  std::uint32_t client = 0;
};

/// `tier` = the tier that terminated the request; success=false means it
/// was shed or a downstream call failed (fast-fail response).
struct ServeResponse {
  std::uint64_t seq = 0;
  std::uint8_t tier = 0;
  bool success = false;
};

enum class Tier : std::uint8_t { kGateway = 0, kEdge = 1, kCloud = 2 };

std::string_view to_string(Tier tier);
std::string_view to_string(ShedReason reason);

/// One server node of a tier: admission control in front of a fixed
/// service time, then answer locally or forward to a downstream tier with
/// the remaining deadline budget.
class TierServer : public net::Node {
 public:
  TierServer(net::Network& network, Tier tier, AdmissionConfig admission);

  /// Wire the downstream tier (none = this tier terminates everything).
  /// Requests route to peers[client % peers.size()] — stable affinity.
  void set_downstream(std::vector<net::NodeId> peers,
                      net::RpcOptions options);
  /// Fraction of admitted requests this tier answers itself even with a
  /// downstream configured (edge cache hits). Decided by a deterministic
  /// hash of the request seq, not an RNG draw.
  void set_local_fraction(double fraction) { local_fraction_ = fraction; }

  [[nodiscard]] Tier tier() const { return tier_; }
  [[nodiscard]] net::RpcEndpoint& rpc() { return rpc_; }
  [[nodiscard]] const AdmissionQueue& admission() const { return admission_; }

  // --- Per-node outcome counters (fabric aggregates across the tier) ------
  [[nodiscard]] std::uint64_t served_local() const { return served_local_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t downstream_failed() const {
    return downstream_failed_;
  }

 private:
  void serve_one(const ServeRequest& request, SimTime deadline,
                 net::RpcResponder<ServeResponse> respond);

  Tier tier_;
  net::RpcEndpoint rpc_;
  AdmissionQueue admission_;
  std::vector<net::NodeId> downstream_;
  net::RpcOptions downstream_options_;
  double local_fraction_ = 0.0;
  std::uint64_t served_local_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t downstream_failed_ = 0;
  // Registry mirrors, labeled {tier=...}; resolved once at construction.
  Counter& requests_total_;
  Counter& shed_full_total_;
  Counter& shed_expired_total_;
  Counter& downstream_failed_total_;
};

/// Per-tier sizing for the fabric.
struct TierSpec {
  std::size_t nodes = 1;
  AdmissionConfig admission;
  double local_fraction = 0.0;
};

struct FabricConfig {
  TierSpec gateway{.nodes = 4,
                   .admission = {.queue_capacity = 512,
                                 .concurrency = 16,
                                 .service_time = micros(50)},
                   .local_fraction = 0.0};
  TierSpec edge{.nodes = 2,
                .admission = {.queue_capacity = 256,
                              .concurrency = 8,
                              .service_time = micros(200)},
                .local_fraction = 0.6};
  TierSpec cloud{.nodes = 1,
                 .admission = {.queue_capacity = 1024,
                               .concurrency = 32,
                               .service_time = millis(1)},
                 .local_fraction = 0.0};
};

/// Aggregated per-tier view (sums over the tier's nodes).
struct TierStats {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed_full = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t served_local = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t downstream_failed = 0;
  std::size_t queue_high_water = 0;  // max over nodes
};

/// Builds the three-tier topology: constructs the tier servers, wires
/// downstream routing (gateway -> edges -> clouds), and programs the
/// network's link-class matrix so per-message link resolution stays on the
/// cached fast path at any node count.
class ServingFabric {
 public:
  static constexpr net::LinkClass kClientClass = 1;
  static constexpr net::LinkClass kGatewayClass = 2;
  static constexpr net::LinkClass kEdgeClass = 3;
  static constexpr net::LinkClass kCloudClass = 4;

  ServingFabric(net::Network& network, const FabricConfig& config);

  /// Stable client -> gateway affinity (client banks route through this).
  [[nodiscard]] net::NodeId gateway_for(std::uint32_t client) const {
    return gateways_[client % gateways_.size()]->id();
  }
  /// Tag a client-side node so its gateway links ride the LAN class.
  void attach_client(net::NodeId id) const;

  [[nodiscard]] std::vector<std::unique_ptr<TierServer>>& tier(Tier tier);
  [[nodiscard]] TierStats stats(Tier tier) const;
  [[nodiscard]] std::size_t node_count() const {
    return gateways_.size() + edges_.size() + clouds_.size();
  }

 private:
  net::Network& net_;
  std::vector<std::unique_ptr<TierServer>> gateways_;
  std::vector<std::unique_ptr<TierServer>> edges_;
  std::vector<std::unique_ptr<TierServer>> clouds_;
};

/// Client-side request driver: multiplexes many logical clients over one
/// RpcEndpoint, stamps per-request start times, and records every outcome
/// into the SloTracker. Generators plug in as the sink:
///
///   OpenLoopGenerator gen(sim, cfg, [&](uint32_t c) { bank.issue(c); });
class ClientBank : public net::Node {
 public:
  using Done = std::function<void()>;

  /// `options.deadline` is the end-to-end budget every request carries
  /// (also the admission queues' EDF key upstream). `bank_index` salts
  /// request seqs so banks never collide.
  ClientBank(net::Network& network, ServingFabric& fabric,
             net::RpcOptions options, obs::SloTracker& slo,
             std::uint32_t bank_index = 0);

  /// Fire one request for a logical client. `done` (optional) runs when
  /// the call completes either way — closed-loop generators pass their
  /// done-callback through here.
  void issue(std::uint32_t client, Done done = nullptr);

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t succeeded() const { return succeeded_; }
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }
  [[nodiscard]] net::RpcEndpoint& rpc() { return rpc_; }

 private:
  net::RpcEndpoint rpc_;
  ServingFabric& fabric_;
  net::RpcOptions options_;
  obs::SloTracker& slo_;
  std::uint64_t next_seq_;  // high bits carry the bank index
  std::uint64_t issued_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t in_flight_ = 0;
};

}  // namespace riot::sim::workload
