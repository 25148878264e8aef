// Planet-scale serving bench: SLO attainment through the gateway -> edge
// -> cloud graph under open-loop load, healthy and faulted.
//
// An open-loop Poisson arrival process (Lewis–Shedler thinning over the
// logical client population, flash-crowd shaped) drives requests from up
// to 1M simulated clients through the three-tier serving fabric
// (sim/workload/service.hpp): resilient RPC on every hop (deadline
// budgets, retries, breakers), per-tier bounded admission queues with EDF
// priority and shed-on-deadline-exceeded. Every request outcome lands in
// an SloTracker (log-bucketed latency histogram + attainment counters),
// so the table reports goodput, p50/p99/p99.9, and SLO attainment per
// rung — once on a healthy fabric and once under a generated chaos
// schedule (crashes, partitions, loss, delay, duplicates across the tier
// nodes).
//
// Because clients are logical generator indices multiplexed over a small
// set of ClientBank nodes, the 1M-client rung runs with ~100 physical
// Nodes — scale lives in the arrival process and the queues, which is
// where serving behaviour actually lives.
//
// Writes BENCH_serving.json (schema riot-bench-v1, config.seed recorded)
// with the riot_serving_* / riot_rpc_* registry snapshot of the most
// adversarial run embedded.
//
// allocs/req is every heap allocation from the generator's start to the
// end of the drain, over the run's arrivals. It is an exact count for a
// seed, so its ceiling cannot flake.
//
// The ladder closes with a closed-loop rung (session users cycling
// issue -> wait -> think through the same banks and fabric): the
// self-throttling regime most load generators silently implement, printed
// next to the open-loop rows so the overload disagreement between the two
// models is visible in one table.
//
// Usage:
//   bench_serving                  # 10k / 100k / 1M open + closed-loop 10k
//   bench_serving --trim           # CI floor: 10k + closed-2k, short run
//   bench_serving --clients=50000  # one custom rung
//   bench_serving --trim --min-goodput-pct=80 --min-slo-pct=70
//                 --min-faulted-goodput-pct=30
//                 --min-closed-goodput-pct=90   # enforce floors (CI)
//                 --max-allocs-per-request=0.1  # and the allocation ceiling
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench_util.hpp"
#include "net/chaos_hooks.hpp"
#include "net/world.hpp"
#include "obs/slo.hpp"
#include "sim/chaos.hpp"
#include "sim/fault.hpp"
#include "sim/workload/generator.hpp"
#include "sim/workload/service.hpp"

namespace riot::bench {
namespace {

namespace wl = sim::workload;

struct Rung {
  const char* name;
  std::uint64_t clients;
  double rate_per_client_hz;  // base rate; flash crowd peaks at 3x
  double sim_seconds;
  // Closed-loop rung: `clients` session users cycle issue -> wait -> think
  // (think mean = 1/rate_per_client_hz) instead of an open Poisson front
  // door. Offered load self-throttles with latency, so shed/timeout under
  // stress shows up as *reduced arrivals*, not lost goodput — the contrast
  // the open-loop rows exist to expose.
  bool closed = false;
};

struct RunStats {
  std::uint64_t arrivals = 0;
  std::uint64_t finished = 0;
  std::uint64_t ok = 0;
  double offered_per_s = 0.0;
  double goodput_per_s = 0.0;
  double slo_pct = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t shed_full = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t breaker_open = 0;
  std::uint64_t trace_hash = 0;
  double allocs_per_request = 0.0;

  [[nodiscard]] double goodput_pct() const {
    return arrivals == 0 ? 0.0
                         : 100.0 * static_cast<double>(ok) /
                               static_cast<double>(arrivals);
  }
};

/// Size a tier so base load runs it at ~50% utilization: overload then
/// comes from the flash crowd and the fault windows, not from mis-sizing.
std::size_t nodes_for(double load_per_s, double cap_per_node_s,
                      std::size_t min_nodes) {
  const auto n = static_cast<std::size_t>(
      std::ceil(load_per_s / (0.5 * cap_per_node_s)));
  return std::max(min_nodes, n);
}

RunStats run_rung(const Rung& rung, bool faulted, std::uint64_t seed,
                  BenchReport* snapshot_into) {
  net::World h(seed);
  h.trace.set_min_level(sim::TraceLevel::kWarn);

  const double offered_hz =
      static_cast<double>(rung.clients) * rung.rate_per_client_hz;

  wl::FabricConfig config;
  config.gateway = {.nodes = nodes_for(offered_hz, 4000.0, 4),
                    .admission = {.queue_capacity = 256,
                                  .concurrency = 4,
                                  .service_time = sim::millis(1)},
                    .local_fraction = 0.0};
  config.edge = {.nodes = nodes_for(offered_hz, 8000.0, 2),
                 .admission = {.queue_capacity = 512,
                               .concurrency = 16,
                               .service_time = sim::millis(2)},
                 .local_fraction = 0.6};
  config.cloud = {.nodes = nodes_for(0.4 * offered_hz, 12800.0, 1),
                  .admission = {.queue_capacity = 1024,
                                .concurrency = 64,
                                .service_time = sim::millis(5)},
                  .local_fraction = 0.0};
  wl::ServingFabric fabric(h.network, config);

  // End-to-end SLO: 250 ms. The client budget leaves room for one retry.
  obs::SloTracker slo(h.metrics, "serving", sim::millis(250));
  const net::RpcOptions client_options{.timeout = sim::millis(250),
                                       .max_attempts = 2,
                                       .deadline = sim::millis(600),
                                       .backoff_base = sim::millis(20),
                                       .backoff_cap = sim::millis(100)};

  const std::size_t bank_count = std::clamp<std::size_t>(
      rung.clients / 20000, 1, 64);
  std::vector<std::unique_ptr<wl::ClientBank>> banks;
  banks.reserve(bank_count);
  for (std::size_t b = 0; b < bank_count; ++b) {
    banks.push_back(std::make_unique<wl::ClientBank>(
        h.network, fabric, client_options, slo,
        static_cast<std::uint32_t>(b)));
  }

  // Open loop: flash crowd at 40% of the run — 3x the base rate inside
  // ~500 ms, then exponential cooldown — the shape that makes admission
  // control earn its keep. Closed loop: session users with exponential
  // think time; no shape (self-throttling replaces the crowd).
  std::unique_ptr<wl::OpenLoopGenerator> open_gen;
  std::unique_ptr<wl::ClosedLoopGenerator> closed_gen;
  if (rung.closed) {
    wl::ClosedLoopConfig load{
        .clients = static_cast<std::uint32_t>(rung.clients),
        .think_mean = sim::seconds_f(1.0 / rung.rate_per_client_hz),
        .first_spread = sim::seconds(1)};
    closed_gen = std::make_unique<wl::ClosedLoopGenerator>(
        h.sim, load,
        [&banks](std::uint32_t client, wl::ClosedLoopGenerator::Done done) {
          banks[client % banks.size()]->issue(client, std::move(done));
        },
        "serving-closed");
  } else {
    wl::OpenLoopConfig load{
        .clients = rung.clients,
        .rate_per_client_hz = rung.rate_per_client_hz,
        .shape = wl::RateShape::flash_crowd(
            sim::seconds_f(0.4 * rung.sim_seconds), sim::millis(500),
            /*peak=*/3.0, sim::seconds(2))};
    open_gen = std::make_unique<wl::OpenLoopGenerator>(
        h.sim, load,
        [&banks](std::uint32_t client) {
          banks[client % banks.size()]->issue(client);
        },
        "serving-open");
  }

  // Chaos: disruption windows across the tier nodes (never the client
  // banks — the front door stays up; the *fabric* degrades).
  sim::FaultInjector injector(h.sim, h.trace);
  net::LogicalNodes tier_nodes;
  for (const wl::Tier tier :
       {wl::Tier::kGateway, wl::Tier::kEdge, wl::Tier::kCloud}) {
    for (auto& node : fabric.tier(tier)) tier_nodes.push_back({node.get()});
  }
  if (faulted) {
    sim::chaos::ChaosProfile profile;
    profile.node_count = tier_nodes.size();
    profile.warmup = sim::seconds_f(0.1 * rung.sim_seconds);
    profile.horizon = sim::seconds_f(0.7 * rung.sim_seconds);
    profile.cooldown = sim::seconds_f(0.3 * rung.sim_seconds);
    profile.min_actions = 4;
    profile.max_actions = 8;
    profile.max_duration = sim::seconds_f(0.2 * rung.sim_seconds);
    profile.max_loss = 0.3;          // open-loop load; total blackout is
    profile.max_delay_factor = 4.0;  //   not an interesting serving regime
    profile.skew_weight = 0.0;       // deadlines compare caller clocks
    profile.max_concurrent_down = std::max<std::size_t>(
        1, tier_nodes.size() / 8);
    const auto schedule =
        sim::chaos::generate_schedule(seed ^ 0xC0FFEE, profile);
    sim::chaos::install_schedule(schedule, injector,
                                 net::chaos_hooks_for(h.network, tier_nodes));
    injector.arm();
  }

  const sim::SimTime horizon = sim::seconds_f(rung.sim_seconds);
  const std::uint64_t allocs_before = alloc::heap_allocs();
  if (closed_gen != nullptr) {
    closed_gen->start();
  } else {
    open_gen->start();
  }
  h.sim.run_until(horizon);
  if (closed_gen != nullptr) {
    closed_gen->stop();
  } else {
    open_gen->stop();
  }
  // Drain: let in-flight requests resolve (the 600 ms budget bounds them).
  h.sim.run_until(horizon + sim::seconds(2));

  const std::uint64_t allocs = alloc::heap_allocs() - allocs_before;
  RunStats stats;
  stats.arrivals =
      closed_gen != nullptr ? closed_gen->arrivals() : open_gen->arrivals();
  stats.allocs_per_request =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::uint64_t>(stats.arrivals, 1));
  stats.trace_hash = closed_gen != nullptr ? closed_gen->trace_hash()
                                           : open_gen->trace_hash();
  stats.finished = slo.total();
  for (const auto& bank : banks) stats.ok += bank->succeeded();
  stats.offered_per_s =
      static_cast<double>(stats.arrivals) / rung.sim_seconds;
  stats.goodput_per_s = static_cast<double>(stats.ok) / rung.sim_seconds;
  stats.slo_pct = 100.0 * slo.attainment();
  stats.p50_ms = slo.p50_us() / 1e3;
  stats.p99_ms = slo.p99_us() / 1e3;
  stats.p999_ms = slo.p999_us() / 1e3;
  for (const wl::Tier tier :
       {wl::Tier::kGateway, wl::Tier::kEdge, wl::Tier::kCloud}) {
    const wl::TierStats t = fabric.stats(tier);
    stats.shed_full += t.shed_full;
    stats.shed_expired += t.shed_expired;
  }
  stats.breaker_open = h.metrics.counter_value(
      "riot_rpc_breaker_transitions_total", {{"to", "open"}});
  if (snapshot_into != nullptr) snapshot_into->snapshot(h.metrics);
  return stats;
}

}  // namespace
}  // namespace riot::bench

int main(int argc, char** argv) {
  using namespace riot;
  using namespace riot::bench;

  bool trim = false;
  std::uint64_t seed = 42;
  std::uint64_t custom_clients = 0;
  double min_goodput_pct = -1.0;
  double min_slo_pct = -1.0;
  double min_faulted_goodput_pct = -1.0;
  double min_closed_goodput_pct = -1.0;
  double max_allocs = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trim") == 0) {
      trim = true;
    } else if (std::sscanf(argv[i], "--seed=%" SCNu64, &seed) == 1 ||
               std::sscanf(argv[i], "--clients=%" SCNu64, &custom_clients) ==
                   1 ||
               std::sscanf(argv[i], "--min-goodput-pct=%lf",
                           &min_goodput_pct) == 1 ||
               std::sscanf(argv[i], "--min-slo-pct=%lf", &min_slo_pct) == 1 ||
               std::sscanf(argv[i], "--min-faulted-goodput-pct=%lf",
                           &min_faulted_goodput_pct) == 1 ||
               std::sscanf(argv[i], "--min-closed-goodput-pct=%lf",
                           &min_closed_goodput_pct) == 1 ||
               std::sscanf(argv[i], "--max-allocs-per-request=%lf",
                           &max_allocs) == 1) {
      // parsed
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<Rung> rungs;
  if (custom_clients > 0) {
    rungs.push_back({"custom", custom_clients,
                     custom_clients <= 10000 ? 1.0 : 0.1, 10.0});
  } else if (trim) {
    rungs.push_back({"10k", 10000, 1.0, 6.0});
    rungs.push_back({"closed-2k", 2000, 1.0, 6.0, /*closed=*/true});
  } else {
    rungs.push_back({"10k", 10000, 1.0, 10.0});
    rungs.push_back({"100k", 100000, 0.2, 10.0});
    rungs.push_back({"1M", 1000000, 0.05, 8.0});
    rungs.push_back({"closed-10k", 10000, 1.0, 10.0, /*closed=*/true});
  }

  banner("Planet-scale serving",
         "Goodput, tail latency, and 250 ms SLO attainment through the "
         "gateway->edge->cloud fabric, healthy vs. chaos-faulted, at each "
         "client-population rung.");

  BenchReport report("serving");
  report.config("seed", static_cast<double>(seed));
  report.config("slo_ms", 250.0);
  report.config("trim", trim ? "true" : "false");

  Table table({"rung", "mode", "offered/s", "goodput/s", "goodput%", "slo%",
               "p50_ms", "p99_ms", "p999_ms", "shed_full", "shed_exp",
               "brk_open", "allocs/req"},
              11);
  table.tee_to(report);
  table.print_header();

  bool floors_ok = true;
  double total_sim_s = 0.0;
  // The artifact embeds the registry of the biggest faulted open rung
  // (the closed rung trails the ladder but is the less adversarial mode).
  const Rung* capture_rung = nullptr;
  for (const Rung& rung : rungs) {
    if (!rung.closed) capture_rung = &rung;
  }
  for (const Rung& rung : rungs) {
    for (const bool faulted : {false, true}) {
      BenchReport* capture =
          (faulted && &rung == capture_rung) ? &report : nullptr;
      const RunStats s = run_rung(rung, faulted, seed, capture);
      total_sim_s += rung.sim_seconds + 2.0;
      const char* mode = faulted ? "faulted" : "healthy";
      table.print_row({rung.name, mode, fmt(s.offered_per_s, 0),
                       fmt(s.goodput_per_s, 0), fmt(s.goodput_pct(), 1),
                       fmt(s.slo_pct, 1), fmt(s.p50_ms, 1), fmt(s.p99_ms, 1),
                       fmt(s.p999_ms, 1), fmt_u(s.shed_full),
                       fmt_u(s.shed_expired), fmt_u(s.breaker_open),
                       fmt(s.allocs_per_request, 4)});
      const std::string prefix = std::string(rung.name) + "_" + mode;
      report.metric(prefix + "_offered_per_s", s.offered_per_s);
      report.metric(prefix + "_goodput_per_s", s.goodput_per_s);
      report.metric(prefix + "_goodput_pct", s.goodput_pct());
      report.metric(prefix + "_slo_pct", s.slo_pct);
      report.metric(prefix + "_p50_ms", s.p50_ms);
      report.metric(prefix + "_p99_ms", s.p99_ms);
      report.metric(prefix + "_p999_ms", s.p999_ms);
      report.metric(prefix + "_shed_full",
                    static_cast<double>(s.shed_full));
      report.metric(prefix + "_shed_expired",
                    static_cast<double>(s.shed_expired));
      report.metric(prefix + "_allocs_per_request", s.allocs_per_request);
      // As hex text: a JSON double cannot hold all 64 bits.
      char hash_hex[17];
      std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                    static_cast<unsigned long long>(s.trace_hash));
      report.config(prefix + "_trace_hash", hash_hex);
      if (max_allocs >= 0.0 && s.allocs_per_request > max_allocs) {
        std::fprintf(stderr, "CEILING: %s %s %.4f > %.4f allocs/req\n",
                     rung.name, mode, s.allocs_per_request, max_allocs);
        floors_ok = false;
      }

      if (rung.closed) {
        // Closed-loop floor: session users self-throttle, so healthy
        // goodput should be near-total — a miss means completions (or the
        // done-callback plumbing) broke, not that load was shed.
        if (!faulted && min_closed_goodput_pct >= 0.0 &&
            s.goodput_pct() < min_closed_goodput_pct) {
          std::fprintf(stderr,
                       "FLOOR: %s healthy closed-loop goodput %.1f%% < "
                       "%.1f%%\n",
                       rung.name, s.goodput_pct(), min_closed_goodput_pct);
          floors_ok = false;
        }
        continue;
      }
      if (!faulted && min_goodput_pct >= 0.0 &&
          s.goodput_pct() < min_goodput_pct) {
        std::fprintf(stderr,
                     "FLOOR: %s healthy goodput %.1f%% < %.1f%%\n",
                     rung.name, s.goodput_pct(), min_goodput_pct);
        floors_ok = false;
      }
      if (!faulted && min_slo_pct >= 0.0 && s.slo_pct < min_slo_pct) {
        std::fprintf(stderr, "FLOOR: %s healthy SLO %.1f%% < %.1f%%\n",
                     rung.name, s.slo_pct, min_slo_pct);
        floors_ok = false;
      }
      if (faulted && min_faulted_goodput_pct >= 0.0 &&
          s.goodput_pct() < min_faulted_goodput_pct) {
        std::fprintf(stderr,
                     "FLOOR: %s faulted goodput %.1f%% < %.1f%%\n",
                     rung.name, s.goodput_pct(), min_faulted_goodput_pct);
        floors_ok = false;
      }
    }
  }
  report.set_sim_time_s(total_sim_s);
  report.write();
  if (!floors_ok) {
    std::fprintf(stderr, "bench_serving: FLOOR CHECK FAILED\n");
    return 1;
  }
  return 0;
}
