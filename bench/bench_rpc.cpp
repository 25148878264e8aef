// RPC resilience bench: the cost and payoff of the resilience policy
// layer (retries with decorrelated jitter, deadline budgets, circuit
// breakers, idempotent dedup) under three network regimes:
//
//   clean   — healthy fabric; measures policy overhead on the happy path.
//   lossy   — 15% ambient loss + message duplication; retries and the
//             dedup cache carry the load.
//   flaky   — servers crash/recover in windows; breakers trip, shed the
//             retry storm, and close again after each heal.
//
// Each regime runs the same population (clusters of one server + N
// clients) for the same simulated time, once with the full policy stack
// and once "naive" (single attempt, no breaker), so the table directly
// shows what resilience buys: delivered-call rate and fail-fast latency
// versus wasted timeouts.
//
// Writes BENCH_rpc.json (schema riot-bench-v1) with the riot_rpc_*
// counter families embedded as a registry snapshot.
//
// Usage:
//   bench_rpc                 # full run: 20 clusters x 10 clients, 60 s
//   bench_rpc --trim          # CI variant: 4 clusters x 5 clients, 10 s
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "net/world.hpp"

namespace riot::bench {
namespace {

struct WorkReq {
  std::uint64_t value = 0;
};
struct WorkResp {
  std::uint64_t value = 0;
};

struct RpcHost : net::Node {
  explicit RpcHost(net::Network& network) : net::Node(network), rpc(*this) {
    set_component("bench_rpc");
  }
  net::RpcEndpoint rpc;
};

struct Scenario {
  const char* name;
  double loss = 0.0;
  double duplicate = 0.0;
  bool flap_servers = false;
};

struct RunResult {
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed_fast = 0;
  std::uint64_t breaker_open_transitions = 0;
  std::uint64_t dedup_hits = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;

  [[nodiscard]] double delivered_pct() const {
    return calls == 0 ? 0.0
                      : 100.0 * static_cast<double>(delivered) /
                            static_cast<double>(calls);
  }
};

RunResult run_scenario(const Scenario& scenario, bool resilient,
                       std::size_t clusters, std::size_t clients_per_cluster,
                       double sim_seconds, std::uint64_t seed,
                       BenchReport* snapshot_into) {
  net::World h(seed);
  h.trace.set_min_level(sim::TraceLevel::kWarn);

  std::vector<std::unique_ptr<RpcHost>> servers;
  std::vector<std::unique_ptr<RpcHost>> clients;
  for (std::size_t c = 0; c < clusters; ++c) {
    auto server = std::make_unique<RpcHost>(h.network);
    server->rpc.serve<WorkReq, WorkResp>(
        [](net::NodeId, const WorkReq& req) {
          return WorkResp{req.value + 1};
        });
    servers.push_back(std::move(server));
    for (std::size_t k = 0; k < clients_per_cluster; ++k) {
      auto client = std::make_unique<RpcHost>(h.network);
      // A window long enough not to trip on ambient loss (needs a
      // sustained >60% failure rate, i.e. a genuinely dead peer) and a
      // short re-probe so healthy time after a recovery isn't wasted.
      client->rpc.set_breaker(
          net::BreakerConfig{.window = 20,
                             .min_samples = 10,
                             .failure_threshold = 0.6,
                             .open_timeout = sim::millis(300)});
      clients.push_back(std::move(client));
    }
  }

  const net::RpcOptions options =
      resilient ? net::RpcOptions{.timeout = sim::millis(100),
                                  .max_attempts = 3,
                                  .deadline = sim::millis(600),
                                  .backoff_base = sim::millis(20),
                                  .backoff_cap = sim::millis(200)}
                : net::RpcOptions{.timeout = sim::millis(100),
                                  .max_attempts = 1,
                                  .use_breaker = false};

  RunResult result;
  std::uint64_t next_value = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    RpcHost* client = clients[i].get();
    RpcHost* server = servers[i / clients_per_cluster].get();
    const sim::SimTime offset = sim::millis((i * 17) % 200);
    h.sim.schedule_after(offset, [&result, &next_value, &options, client,
                                  server] {
      client->every(sim::millis(200), [&result, &next_value, &options,
                                       client, server] {
        ++result.calls;
        client->rpc.call_result<WorkReq, WorkResp>(
            server->id(), WorkReq{next_value++}, options,
            [&result](net::RpcResult<WorkResp> r) {
              if (r.ok()) ++result.delivered;
            });
      });
    });
  }

  h.network.set_ambient_loss(scenario.loss);
  h.network.set_duplicate_probability(scenario.duplicate);
  if (scenario.flap_servers) {
    // Rolling crash windows: each server spends ~1/3 of the run down, at
    // staggered phases so some cluster is always degraded.
    for (std::size_t c = 0; c < servers.size(); ++c) {
      RpcHost* server = servers[c].get();
      h.sim.schedule_after(sim::millis(500 * c), [&h, server] {
        h.sim.schedule_every(sim::seconds(3), [&h, server] {
          server->crash();
          h.sim.schedule_after(sim::seconds(1), [server] { server->recover(); });
        });
      });
    }
  }

  h.sim.run_until(
      sim::millis(static_cast<std::int64_t>(sim_seconds * 1e3)));

  for (const auto& client : clients) {
    result.retries += client->rpc.retries();
    result.failed_fast += client->rpc.failed_fast();
  }
  for (const auto& server : servers) {
    result.dedup_hits += server->rpc.dedup_hits();
  }
  result.breaker_open_transitions = h.metrics.counter_value(
      "riot_rpc_breaker_transitions_total", {{"to", "open"}});
  if (const sim::Histogram* latency =
          h.metrics.find_histogram("riot_rpc_call_latency_us")) {
    result.p50_us = latency->p50();
    result.p99_us = latency->p99();
  }
  // Embed this scenario's riot_rpc_* families in the artifact before the
  // harness (and registry) go out of scope.
  if (snapshot_into != nullptr) snapshot_into->snapshot(h.metrics);
  return result;
}

}  // namespace
}  // namespace riot::bench

int main(int argc, char** argv) {
  using namespace riot;
  using namespace riot::bench;

  bool trim = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trim") == 0) trim = true;
  }
  const std::size_t clusters = trim ? 4 : 20;
  const std::size_t clients_per_cluster = trim ? 5 : 10;
  const double sim_seconds = trim ? 10.0 : 60.0;

  banner("RPC resilience",
         "Delivered-call rate and latency with and without the resilience "
         "policy layer (retries + deadline budget + breaker + dedup).");

  BenchReport report("rpc");
  report.config("seed", 42.0);
  report.config("clusters", static_cast<double>(clusters));
  report.config("clients_per_cluster",
                static_cast<double>(clients_per_cluster));
  report.config("sim_seconds", sim_seconds);
  report.set_sim_time_s(sim_seconds);

  Table table({"scenario", "policy", "calls", "delivered%", "retries",
               "fail_fast", "brk_open", "dedup", "p50_us", "p99_us"},
              12);
  table.tee_to(report);
  table.print_header();

  const Scenario scenarios[] = {
      {.name = "clean"},
      {.name = "lossy", .loss = 0.15, .duplicate = 0.10},
      {.name = "flaky", .flap_servers = true},
  };
  for (const Scenario& scenario : scenarios) {
    for (const bool resilient : {false, true}) {
      // The artifact embeds the registry of the most adversarial resilient
      // run (flaky/resilient is last), carrying every riot_rpc_* family.
      BenchReport* capture =
          (resilient && scenario.flap_servers) ? &report : nullptr;
      const RunResult r =
          run_scenario(scenario, resilient, clusters, clients_per_cluster,
                       sim_seconds, /*seed=*/42, capture);
      table.print_row({scenario.name, resilient ? "resilient" : "naive",
                       fmt_u(r.calls), fmt(r.delivered_pct(), 1),
                       fmt_u(r.retries), fmt_u(r.failed_fast),
                       fmt_u(r.breaker_open_transitions),
                       fmt_u(r.dedup_hits), fmt(r.p50_us, 0),
                       fmt(r.p99_us, 0)});
      const std::string prefix =
          std::string(scenario.name) + (resilient ? "_resilient" : "_naive");
      report.metric(prefix + "_delivered_pct", r.delivered_pct());
      report.metric(prefix + "_retries", static_cast<double>(r.retries));
      report.metric(prefix + "_failed_fast",
                    static_cast<double>(r.failed_fast));
      report.metric(prefix + "_breaker_open",
                    static_cast<double>(r.breaker_open_transitions));
      report.metric(prefix + "_p99_us", r.p99_us);
    }
  }
  report.write();
  return 0;
}
