// Deviceless service orchestration.
//
// The roadmap's service-management vector culminates in "deviceless —
// business logic fully managed and abstracted from the infrastructure
// capabilities" (Table 2): applications submit *tasks with requirements*
// (capabilities, software stack, locality, domain) and the platform picks
// devices. Two schedulers share one placement engine:
//
//   CentralScheduler — ML2 archetype: runs in the cloud over a periodically
//     refreshed (hence stale) snapshot of the fleet; unreachable during
//     WAN outages.
//   EdgeScheduler    — ML3/ML4: one per edge scope over live local state;
//     overflow is negotiated with peer edges, no central party involved.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/registry.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "trust/trust.hpp"

namespace riot::coord {

/// A unit of business logic to place. Requirements only — no device names
/// (that is the point of devicelessness).
struct ServiceTask {
  std::uint64_t id = 0;
  std::string name;
  device::Capabilities required_caps;
  device::SoftwareStack required_stack;
  double cpu_load = 10.0;  // MIPS consumed while placed
  // Locality constraint: must run within `max_distance_m` of `near`
  // (ignored when max_distance_m <= 0).
  device::Location near;
  double max_distance_m = 0.0;
  // Domain constraint: must run inside this domain (nullopt = anywhere).
  std::optional<device::DomainId> domain;

  std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(64 + name.size());
  }
};

/// Pure placement logic over a fleet view; shared by both schedulers and
/// unit-testable without a network.
class PlacementEngine {
 public:
  struct DeviceView {
    device::DeviceId id;
    device::Capabilities caps;
    device::SoftwareStack stack;
    device::Location location;
    device::DomainId domain;
    double cpu_allocated = 0.0;
    bool alive = true;
    // Reputation inputs (see trust::TrustStore). Defaults are the fully
    // trusted state, so trust-oblivious callers keep today's behaviour.
    double trust = 1.0;
    bool quarantined = false;
  };

  /// Insert or update a device's view (placements against it survive).
  void upsert_device(const DeviceView& view);
  void set_alive(device::DeviceId id, bool alive);
  void clear();

  /// Place a task. Feasible devices must satisfy caps (including residual
  /// CPU), run a compatible stack, match the domain, sit within the
  /// locality radius, and not be quarantined. Among feasible devices the
  /// lowest trust-weighted distance wins — (distance + 1) / trust, so at
  /// full trust the *closest* wins exactly as before (locality is the
  /// paper's first-order concern) and distrusted devices must be
  /// proportionally closer to be picked — residual capacity breaking ties.
  [[nodiscard]] std::optional<device::DeviceId> place(const ServiceTask& task);

  /// Record a placement decided elsewhere (e.g. by a remote scheduler):
  /// allocates capacity on `host` without re-running feasibility, so the
  /// local view stays consistent with the remote decision.
  void place_on(const ServiceTask& task, device::DeviceId host);

  /// Release a previous placement (task completed or migrated away).
  void release(std::uint64_t task_id);

  /// Devices hosting tasks; used for failover when a host dies. Returns
  /// the tasks that were on `dead` and releases them.
  std::vector<ServiceTask> evict_host(device::DeviceId dead);

  [[nodiscard]] std::optional<device::DeviceId> host_of(
      std::uint64_t task_id) const;
  [[nodiscard]] const std::vector<DeviceView>& fleet() const { return fleet_; }

 private:
  struct Placement {
    ServiceTask task;
    device::DeviceId host;
  };

  DeviceView* find(device::DeviceId id);

  std::vector<DeviceView> fleet_;
  std::unordered_map<std::uint64_t, Placement> placements_;
};

/// Build a DeviceView from a registry record.
PlacementEngine::DeviceView view_of(const device::Device& d);

// --- RPC payloads ----------------------------------------------------------

struct PlaceRequest {
  ServiceTask task;
  std::uint32_t wire_size() const { return task.wire_size(); }
};
struct PlaceReply {
  bool ok = false;
  device::DeviceId host;
};

/// ML2 cloud scheduler. Refreshes its fleet snapshot from the Registry
/// every `sync_interval` — mirroring telemetry pipelines whose state lags
/// reality — and serves PlaceRequest RPCs.
class CentralScheduler : public net::Node {
 public:
  CentralScheduler(net::Network& network, device::Registry& registry,
                   sim::SimTime sync_interval = sim::seconds(5));

  [[nodiscard]] PlacementEngine& engine() { return engine_; }
  [[nodiscard]] net::RpcEndpoint& rpc() { return rpc_; }
  [[nodiscard]] std::uint64_t placements_served() const { return served_; }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  void refresh_snapshot();

  device::Registry& registry_;
  sim::SimTime sync_interval_;
  PlacementEngine engine_;
  net::RpcEndpoint rpc_;
  std::uint64_t served_ = 0;
  sim::Counter& served_total_;
};

/// ML3/ML4 edge scheduler: live view of its own scope, peer forwarding for
/// overflow.
class EdgeScheduler : public net::Node {
 public:
  EdgeScheduler(net::Network& network, device::Registry& registry);

  /// Declare which devices this edge manages (its scope, Figure 3).
  void set_scope(std::vector<device::DeviceId> scope);
  void add_peer(net::NodeId peer_edge);

  /// Resilience policy for peer-forwarding calls. The default retries once
  /// with jittered backoff under a deadline budget, so a slow peer costs at
  /// most `deadline` before the next peer is tried; an open breaker skips
  /// the peer outright.
  void set_peer_rpc_options(net::RpcOptions options) {
    peer_options_ = options;
  }

  /// Weight placement by reputation: refresh() feeds each device's trust
  /// score and quarantine state into the engine. Quarantined devices are
  /// excluded from placement, except for a brief pass-through window per
  /// TrustStore probe interval (the rehabilitation path). nullptr reverts
  /// to trust-oblivious placement.
  void set_trust_store(trust::TrustStore* store) { trust_ = store; }

  /// Refresh the live view from the registry (cheap; local).
  void refresh();

  [[nodiscard]] PlacementEngine& engine() { return engine_; }
  [[nodiscard]] net::RpcEndpoint& rpc() { return rpc_; }
  [[nodiscard]] std::uint64_t placements_served() const { return served_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  /// Peers skipped without waiting because their breaker was open.
  [[nodiscard]] std::uint64_t breaker_skips() const { return breaker_skips_; }

  /// Place locally or forward to peers; `done` fires with the final
  /// verdict (after at most one forwarding hop per peer).
  void place(const ServiceTask& task,
             std::function<void(std::optional<device::DeviceId>)> done);

 protected:
  void on_start() override;

 private:
  std::optional<device::DeviceId> place_local(const ServiceTask& task);
  void try_peers(const ServiceTask& task, std::size_t peer_index,
                 std::function<void(std::optional<device::DeviceId>)> done);

  device::Registry& registry_;
  trust::TrustStore* trust_ = nullptr;
  std::vector<device::DeviceId> scope_;
  std::vector<net::NodeId> peers_;
  PlacementEngine engine_;
  net::RpcEndpoint rpc_;
  net::RpcOptions peer_options_{.timeout = sim::millis(200),
                                .max_attempts = 2,
                                .deadline = sim::millis(600),
                                .backoff_base = sim::millis(20),
                                .backoff_cap = sim::millis(200)};
  std::uint64_t served_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t breaker_skips_ = 0;
  sim::Counter& served_total_;
  sim::Counter& forwarded_total_;
};

}  // namespace riot::coord
