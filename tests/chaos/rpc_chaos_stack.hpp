// RPC-fabric chaos scenario: resilient call-shaped traffic under the
// chaos harness.
//
// The population is a set of clusters, each one RPC server plus a group
// of clients hammering it with retried, deadline-budgeted calls. Chaos
// logical node i maps to cluster i's *server* — crashes, isolation,
// partitions and clock skew land on the servers while the clients stay up
// and keep calling, which is exactly the regime the resilience policies
// must survive: retry storms into a dead peer, duplicated requests,
// responses racing their own retries, breakers flapping open and closed.
//
// Unlike ChaosStack's workloads, the client tick does NOT stop at the
// schedule horizon: the open -> half-open -> closed breaker transition is
// traffic-driven, so the disruption-free cooldown needs live (idempotent)
// calls for the "breaker eventually closes" invariant to be meaningful.
//
// Invariants:
//   always  rpc_no_duplicate_execution — no (server, caller, call_id)
//           handler execution happens twice, even with retries, message
//           duplication, and partition-delayed requests in flight.
//   always  rpc_response_integrity — every completed call carries the
//           response its own request earned (attempt tags discard
//           cross-attempt races).
//   eventually rpc_breaker_closes_after_heal — once faults revert, every
//           client's breaker for its server returns to closed.
//   eventually rpc_progress_after_heal — every client completes at least
//           one successful call during the cooldown.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos_run.hpp"
#include "net/chaos_hooks.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"

namespace riot::chaos_test {

class RpcChaosStack {
 public:
  struct Config {
    std::size_t clusters = 4;  // == profile.node_count (one server each)
    std::size_t clients_per_cluster = 3;
    sim::SimTime call_period = sim::millis(250);
    std::size_t dedup_capacity = 4096;
  };

  struct WorkReq {
    std::uint64_t value = 0;
  };
  struct WorkResp {
    std::uint64_t value = 0;
  };

  RpcChaosStack(const sim::chaos::ChaosSchedule& schedule,
                const sim::chaos::ChaosProfile& profile)
      : RpcChaosStack(schedule, profile, Config{}) {}

  RpcChaosStack(const sim::chaos::ChaosSchedule& schedule,
                const sim::chaos::ChaosProfile& profile, Config config)
      : chaos_(schedule, profile, 0xc0ffee11c0ffee11ULL), config_(config) {
    build();
    // Chaos targets map to *servers*: clients keep their group-0 seats and
    // keep generating traffic into the disrupted side, which is what
    // exercises timeouts, retries, dedup and the breakers.
    chaos_.hooks = net::chaos_hooks_for(chaos_.network, targets_);
    register_invariants();
  }

  sim::chaos::ChaosRunReport run() {
    return chaos_.run([this] { start_workload(); });
  }

  [[nodiscard]] sim::TraceLog& trace() { return chaos_.trace; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return chaos_.metrics; }
  [[nodiscard]] std::uint64_t total_calls() const { return total_calls_; }
  [[nodiscard]] std::uint64_t total_successes() const {
    return total_successes_;
  }

  static sim::chaos::ScheduleRunFn runner(sim::chaos::ChaosProfile profile) {
    return runner(std::move(profile), Config{});
  }

  static sim::chaos::ScheduleRunFn runner(sim::chaos::ChaosProfile profile,
                                          Config config) {
    return [profile, config](const sim::chaos::ChaosSchedule& schedule) {
      return RpcChaosStack(schedule, profile, config).run();
    };
  }

 private:
  struct Host : net::Node {
    explicit Host(net::Network& network) : net::Node(network), rpc(*this) {}
    net::RpcEndpoint rpc;
  };

  struct Client {
    std::unique_ptr<Host> host;
    std::size_t cluster = 0;
    std::uint64_t next_value = 0;
    std::uint64_t successes = 0;
    sim::SimTime last_success_at = sim::kSimTimeZero;
  };

  void build() {
    for (std::size_t c = 0; c < config_.clusters; ++c) {
      auto server = std::make_unique<Host>(chaos_.network);
      server->rpc.set_dedup_capacity(config_.dedup_capacity);
      server->rpc.serve<WorkReq, WorkResp>(
          [](net::NodeId, const WorkReq& req) {
            return WorkResp{req.value * 2 + 1};
          });
      const std::size_t cluster = c;
      server->rpc.set_execution_observer(
          [this, cluster](net::NodeId caller, std::uint64_t call_id) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(caller.value) << 40) ^
                (static_cast<std::uint64_t>(cluster) << 32) ^ call_id;
            if (++executions_[key] > 1 && !duplicate_execution_) {
              duplicate_execution_ =
                  "cluster " + std::to_string(cluster) + " executed call " +
                  std::to_string(call_id) + " from caller " +
                  std::to_string(caller.value) + " twice";
            }
          });
      targets_.push_back({server.get()});
      servers_.push_back(std::move(server));
    }
    for (std::size_t c = 0; c < config_.clusters; ++c) {
      for (std::size_t k = 0; k < config_.clients_per_cluster; ++k) {
        Client client;
        client.host = std::make_unique<Host>(chaos_.network);
        client.host->rpc.set_breaker(
            net::BreakerConfig{.window = 8,
                               .min_samples = 4,
                               .failure_threshold = 0.5,
                               .open_timeout = sim::millis(800)});
        client.cluster = c;
        clients_.push_back(std::move(client));
      }
    }
  }

  void register_invariants() {
    chaos_.registry.add_always("rpc_no_duplicate_execution",
                               [this] { return duplicate_execution_; });
    chaos_.registry.add_always("rpc_response_integrity",
                               [this] { return wrong_response_; });
    chaos_.registry.add_eventually(
        "rpc_breaker_closes_after_heal",
        [this]() -> std::optional<std::string> {
          for (std::size_t i = 0; i < clients_.size(); ++i) {
            const net::BreakerState state = clients_[i].host->rpc.breaker_state(
                servers_[clients_[i].cluster]->id());
            if (state != net::BreakerState::kClosed) {
              return "client " + std::to_string(i) + " breaker still " +
                     std::string(net::to_string(state)) + " after cooldown";
            }
          }
          return std::nullopt;
        });
    chaos_.registry.add_eventually(
        "rpc_progress_after_heal", [this]() -> std::optional<std::string> {
          for (std::size_t i = 0; i < clients_.size(); ++i) {
            if (clients_[i].last_success_at < chaos_.horizon()) {
              return "client " + std::to_string(i) +
                     " made no successful call during the cooldown";
            }
          }
          return std::nullopt;
        });
  }

  void start_workload() {
    // Staggered client ticks (deterministic offsets) so call bursts do not
    // all land on the same instant at scale. Ticks run through the
    // cooldown on purpose — see the header comment.
    const auto period_ms =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      sim::to_millis(config_.call_period)));
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const sim::SimTime offset =
          sim::millis((static_cast<std::int64_t>(i) * 17) % period_ms);
      chaos_.sim.schedule_after(offset, [this, i] {
        chaos_.sim.schedule_every(config_.call_period,
                                  [this, i] { tick(i); });
      });
    }
  }

  void tick(std::size_t i) {
    Client& client = clients_[i];
    if (!client.host->alive()) return;
    const std::uint64_t sent = client.next_value++;
    ++total_calls_;
    client.host->rpc.call_result<WorkReq, WorkResp>(
        servers_[client.cluster]->id(), WorkReq{sent},
        net::RpcOptions{.timeout = sim::millis(100),
                        .max_attempts = 3,
                        .deadline = sim::millis(600),
                        .backoff_base = sim::millis(20),
                        .backoff_cap = sim::millis(200)},
        [this, i, sent](net::RpcResult<WorkResp> r) {
          if (!r.ok()) return;
          Client& client = clients_[i];
          if (r.value->value != sent * 2 + 1 && !wrong_response_) {
            wrong_response_ = "client " + std::to_string(i) + " sent " +
                              std::to_string(sent) + " but got " +
                              std::to_string(r.value->value);
          }
          ++client.successes;
          ++total_successes_;
          client.last_success_at = chaos_.sim.now();
        });
  }

  ChaosRun chaos_;
  Config config_;

  std::vector<std::unique_ptr<Host>> servers_;
  net::LogicalNodes targets_;  // chaos logical node i = {server i}
  std::vector<Client> clients_;
  std::unordered_map<std::uint64_t, std::uint32_t> executions_;
  std::optional<std::string> duplicate_execution_;
  std::optional<std::string> wrong_response_;
  std::uint64_t total_calls_ = 0;
  std::uint64_t total_successes_ = 0;
};

/// Server-fault-heavy smoke profile for the RPC fabric (short enough for
/// tier-1).
inline sim::chaos::ChaosProfile rpc_smoke_profile() {
  sim::chaos::ChaosProfile p;
  p.node_count = 4;  // == RpcChaosStack::Config::clusters
  p.warmup = sim::seconds(2);
  p.horizon = sim::seconds(10);
  p.cooldown = sim::seconds(8);
  p.min_actions = 2;
  p.max_actions = 5;
  p.max_duration = sim::seconds(3);
  p.max_concurrent_down = 2;
  return p;
}

}  // namespace riot::chaos_test
