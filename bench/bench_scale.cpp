// Scale bench: event-kernel and full-stack throughput at 1k/5k/10k
// endpoints — the bench that seeds the BENCH_* trajectory with events/sec
// and bytes/event so every future kernel or fabric change is measured.
//
// Two phases per population size:
//
//   kernel — pure event-loop churn: one periodic timer per endpoint, each
//            tick cancelling the one-shot it armed last tick and arming a
//            new one. Isolates the simulation core (schedule + cancel +
//            dispatch) from protocol logic; this is the number the
//            scale-check CI floor guards.
//
//   stack  — the paper's Fig. 3 city-scale shape: edge clusters of 50
//            endpoints (1 heartbeat monitor, 16 SWIM members, 16 gossip
//            nodes, 17 heartbeat emitters) under continuous churn
//            (crash/recover, isolate flaps, one mid-run partition that
//            splits the metro in half). Measures end-to-end events/sec and
//            bytes/event through the network fabric.
//
//   delivery — the envelope hot path in isolation: node pairs ping-pong a
//            fixed-size POD payload over a zero-loss, zero-jitter LAN
//            link. Every simulated event is exactly one message delivery,
//            and a global operator-new hook counts heap allocations inside
//            the measured window — the rung that proves the typed-envelope
//            path is allocation-free (allocs_per_ev must read 0.000).
//
// Plus the sharded ladder (its own populations, up to the 100k rung): the
// same heartbeat + request-chain workload run on the sharded kernel at
// 1/2/4/8 shards. Shard-count determinism is enforced unconditionally —
// every rung of a ladder must fingerprint bit-identically (events, sent,
// delivered, dropped, bytes, delivery hash) to its single-shard run. That
// fingerprint is printed as one `sharded-fingerprint` line per population,
// and its hash is recorded as hex text in the report's config
// (`sharded_hash_<population>`), so other commits can be compared with it.
// Parallel speedup floors (--min-shard-speedup) only apply when the host
// actually has the cores (hardware_concurrency >= shards); the report's
// `host` object records what the numbers were measured on.
//
// Usage:
//   bench_scale                      # full run: 1k/5k/10k, 60 simulated s
//   bench_scale --trim               # CI variant: 1k only, 5 simulated s
//   bench_scale --populations=1000   # comma-separated endpoint counts
//   bench_scale --sim-seconds=30
//   bench_scale --min-kernel-eps=N   # exit 1 if kernel events/sec < N
//   bench_scale --min-delivery-eps=N # exit 1 if delivery events/sec < N
//   bench_scale --max-delivery-allocs=X  # exit 1 if allocs/delivery > X
//   bench_scale --min-sharded-eps=N  # exit 1 if 1-shard sharded rung < N
//   bench_scale --min-shard-speedup=X    # exit 1 if 4-shard < X * 1-shard
//                                        # (skipped below 4 hardware threads)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "bench_util.hpp"
#include "coord/gossip.hpp"
#include "membership/heartbeat.hpp"
#include "membership/swim.hpp"
#include "net/shard_net.hpp"
#include "net/world.hpp"
#include "sim/sharded.hpp"

namespace riot::bench {
namespace {

constexpr std::size_t kClusterSize = 50;
constexpr std::size_t kSwimPerCluster = 16;
constexpr std::size_t kGossipPerCluster = 16;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double max_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

struct PhaseResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;  // heap allocations inside the measured window

  [[nodiscard]] double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  [[nodiscard]] double bytes_per_event() const {
    return events > 0 ? static_cast<double>(bytes) /
                            static_cast<double>(events)
                      : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

// --- kernel phase -----------------------------------------------------------

PhaseResult run_kernel(std::size_t population, double sim_seconds) {
  sim::Simulation sim(42);
  std::vector<sim::EventId> armed(population, sim::kInvalidEventId);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < population; ++i) {
    // Staggered periods (50..149 ms) so ticks spread over the timeline.
    const sim::SimTime period =
        sim::millis(50 + static_cast<std::int64_t>(i % 100));
    sim.schedule_every(period, [&sim, &armed, &fired, i, period] {
      ++fired;
      // The one-shot armed last tick sits two periods out — cancelling it
      // here keeps a steady stream of tombstones flowing through the queue.
      sim.cancel(armed[i]);
      armed[i] = sim.schedule_after(period * 2, [&fired] { ++fired; });
    });
  }
  PhaseResult r;
  const double t0 = now_s();
  sim.run_until(sim::millis(static_cast<std::int64_t>(sim_seconds * 1e3)));
  r.wall_s = now_s() - t0;
  r.events = sim.executed_events();
  return r;
}

// --- stack phase ------------------------------------------------------------

struct Cluster {
  net::NodeId monitor_id;
  std::vector<std::unique_ptr<net::Node>> nodes;
  std::vector<net::NodeId> members;  // everyone, for churn targeting
};

PhaseResult run_stack(std::size_t population, double sim_seconds,
                      std::uint64_t seed) {
  net::World h(seed);
  h.trace.set_min_level(sim::TraceLevel::kWarn);

  const std::size_t clusters = population / kClusterSize;
  // All protocol traffic is intra-cluster (SWIM/gossip peers and the
  // heartbeat monitor live in the same cluster), so a single LAN-grade
  // class pair resolved through the cached class matrix covers it — the
  // per-message path pays two array loads, no hash and no model call.
  h.network.set_class_link(
      0, 0, net::LinkQuality{sim::micros(500), sim::micros(200), 0.001});

  std::vector<Cluster> fleet;
  fleet.reserve(clusters);
  std::vector<net::NodeId> swim_ids;       // churn targets
  std::vector<net::Node*> swim_nodes;
  for (std::size_t c = 0; c < clusters; ++c) {
    Cluster cluster;
    auto monitor = std::make_unique<membership::HeartbeatMonitor>(h.network);
    cluster.monitor_id = monitor->id();
    cluster.members.push_back(monitor->id());

    std::vector<membership::SwimMember*> swims;
    for (std::size_t i = 0; i < kSwimPerCluster; ++i) {
      auto m = std::make_unique<membership::SwimMember>(h.network);
      swims.push_back(m.get());
      swim_ids.push_back(m->id());
      swim_nodes.push_back(m.get());
      cluster.members.push_back(m->id());
      cluster.nodes.push_back(std::move(m));
    }
    std::vector<coord::GossipNode*> gossips;
    for (std::size_t i = 0; i < kGossipPerCluster; ++i) {
      auto g = std::make_unique<coord::GossipNode>(h.network);
      gossips.push_back(g.get());
      cluster.members.push_back(g->id());
      cluster.nodes.push_back(std::move(g));
    }
    const std::size_t emitters =
        kClusterSize - 1 - kSwimPerCluster - kGossipPerCluster;
    for (std::size_t i = 0; i < emitters; ++i) {
      auto e = std::make_unique<membership::HeartbeatEmitter>(
          h.network, monitor->id());
      monitor->watch(e->id());
      cluster.members.push_back(e->id());
      cluster.nodes.push_back(std::move(e));
    }

    for (auto* m : swims) {
      for (auto* peer : swims) {
        if (peer != m) m->add_peer(peer->id());
      }
    }
    for (auto* g : gossips) {
      for (auto* peer : gossips) {
        if (peer != g) g->add_peer(peer->id());
      }
    }
    // Each gossip node refreshes one key every 2 s: steady dissemination
    // load on top of the anti-entropy rounds.
    for (auto* g : gossips) {
      g->every(sim::seconds(2), [g] {
        g->put("k" + std::to_string(g->id().value),
               std::to_string(g->network().simulation().now().count()));
      });
    }
    cluster.nodes.push_back(std::move(monitor));
    fleet.push_back(std::move(cluster));
  }
  for (auto& cluster : fleet) {
    for (auto& node : cluster.nodes) node->start();
  }

  // Churn driver: crash/recover SWIM members, isolate flaps, and one
  // partition that splits the metro in half mid-run.
  sim::Rng churn = h.sim.rng().split("scale-churn");
  h.sim.schedule_every(sim::millis(250), [&h, &churn, &swim_nodes] {
    net::Node* victim = swim_nodes[churn.below(swim_nodes.size())];
    if (!victim->alive()) return;
    victim->crash();
    h.sim.schedule_after(
        sim::millis(churn.between(1000, 3000)),
        [victim] {
          if (!victim->alive()) victim->recover();
        });
  });
  h.sim.schedule_every(sim::millis(500), [&h, &churn, &swim_ids] {
    const net::NodeId target = swim_ids[churn.below(swim_ids.size())];
    h.network.isolate(target);
    h.sim.schedule_after(sim::millis(churn.between(500, 2000)),
                         [&h, target] { h.network.unisolate(target); });
  });
  if (sim_seconds >= 10.0) {
    const auto at_frac = [sim_seconds](double f) {
      return sim::millis(static_cast<std::int64_t>(sim_seconds * f * 1e3));
    };
    h.sim.schedule_at(at_frac(0.4), [&h, &fleet] {
      std::vector<net::NodeId> west;
      std::vector<net::NodeId> east;
      for (std::size_t c = 0; c < fleet.size(); ++c) {
        auto& side = c < fleet.size() / 2 ? west : east;
        side.insert(side.end(), fleet[c].members.begin(),
                    fleet[c].members.end());
      }
      h.network.partition({west, east});
    });
    h.sim.schedule_at(at_frac(0.6), [&h] { h.network.heal_partition(); });
  }

  PhaseResult r;
  const double t0 = now_s();
  const std::uint64_t allocs0 = alloc::heap_allocs();
  h.sim.run_until(sim::millis(static_cast<std::int64_t>(sim_seconds * 1e3)));
  r.allocs = alloc::heap_allocs() - allocs0;
  r.wall_s = now_s() - t0;
  r.events = h.sim.executed_events();
  r.messages = h.network.messages_sent();
  r.bytes = h.network.bytes_sent();
  return r;
}

// --- delivery phase ---------------------------------------------------------

// The envelope hot path in isolation. Node pairs bat a fixed-size POD
// payload back and forth over a deterministic link (no loss, no jitter —
// the fabric draws no randomness), so every executed event is exactly one
// message delivery: payload boxed inline, flight-slab slot reused,
// dispatch through the flat handler table. After a warm-up window lets
// every pool reach its steady-state high-water mark, the measured window
// must run allocation-free.

struct Ball {
  std::uint64_t bounce = 0;
};

class PongNode final : public net::Node {
 public:
  explicit PongNode(net::Network& network) : net::Node(network) {
    on<Ball>([this](net::NodeId from, const Ball& ball) {
      send(from, Ball{ball.bounce + 1});
    });
  }
};

PhaseResult run_delivery(std::size_t population, double sim_seconds) {
  net::World h(7);
  h.trace.set_min_level(sim::TraceLevel::kWarn);
  // Deterministic LAN link: zero jitter and zero loss keep the per-message
  // path free of RNG draws; the cached class matrix keeps it free of
  // hashing.
  h.network.set_class_link(0, 0,
                           net::LinkQuality{sim::micros(500), {}, 0.0});

  std::vector<std::unique_ptr<PongNode>> nodes;
  nodes.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    nodes.push_back(std::make_unique<PongNode>(h.network));
  }
  for (std::size_t i = 0; i + 1 < population; i += 2) {
    nodes[i]->send(nodes[i + 1]->id(), Ball{0});
  }

  // Warm-up: grow the event pool, flight slab, and dispatch tables to
  // their steady-state sizes before the counter snapshot.
  const sim::SimTime warmup = sim::millis(500);
  h.sim.run_until(warmup);

  // Bounded measurement window: one ball per pair at 500 us per hop is
  // ~1k deliveries per endpoint per simulated second, so a short window
  // already executes millions of deliveries at 10k endpoints.
  const double window_s = std::min(2.0, sim_seconds);
  PhaseResult r;
  const std::uint64_t events0 = h.sim.executed_events();
  const std::uint64_t delivered0 = h.network.messages_delivered();
  const std::uint64_t bytes0 = h.network.bytes_sent();
  const std::uint64_t allocs0 = alloc::heap_allocs();
  const double t0 = now_s();
  h.sim.run_until(warmup +
                  sim::millis(static_cast<std::int64_t>(window_s * 1e3)));
  r.wall_s = now_s() - t0;
  r.allocs = alloc::heap_allocs() - allocs0;
  r.events = h.sim.executed_events() - events0;
  r.messages = h.network.messages_delivered() - delivered0;
  r.bytes = h.network.bytes_sent() - bytes0;
  return r;
}

// --- sharded phase ----------------------------------------------------------

// Heartbeat + request-chain workload on the sharded kernel, built to be
// shard-count invariant: heartbeat neighbors come from fixed cells sized
// for the widest ladder rung (population / 8), which nest inside the
// contiguous shard blocks of every narrower rung, so the message set is a
// function of (population, seed) alone. Request chains pair endpoint e
// with e + population/2 — cross-shard long-haul at every rung above 1.

struct ShardPing {
  std::uint32_t hops = 0;
};
struct ShardBeat {
  std::uint32_t beat = 0;
};

constexpr std::size_t kShardLadderMax = 8;

struct ShardedResult {
  PhaseResult phase;
  // Fingerprint compared across the ladder: any difference is a
  // determinism regression, not a tuning matter.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
};

ShardedResult run_sharded(std::size_t population, std::size_t shards,
                          double sim_seconds, std::uint64_t seed) {
  sim::ShardedSimulation kernel(shards, seed);
  net::ShardedNetwork net(kernel);
  std::vector<net::NodeId> ids;
  ids.reserve(population);
  for (std::size_t e = 0; e < population; ++e) {
    const std::size_t shard = e * shards / population;  // contiguous blocks
    ids.push_back(net.register_endpoint(shard, [&net](const net::Message& m) {
      if (m.kind() == net::payload_kind_of<ShardPing>()) {
        const auto& ping = m.as<ShardPing>();
        if (ping.hops > 0) net.send(m.to, m.from, ShardPing{ping.hops - 1});
      }
    }));
    net.set_endpoint_class(ids.back(), e % 2 == 0 ? 0 : 1);
  }
  net.set_class_link(0, 0, {sim::millis(2), sim::millis(1), 0.01});
  net.set_class_link(1, 1, {sim::millis(2), sim::millis(1), 0.01});
  net.set_class_link(0, 1, {sim::millis(6), sim::millis(3), 0.03});
  net.set_class_link(1, 0, {sim::millis(6), sim::millis(3), 0.03});
  net.set_ambient_loss(0.005);
  net.seal();

  const std::size_t cell = population / kShardLadderMax;
  for (std::size_t e = 0; e < population; ++e) {
    const std::size_t shard = e * shards / population;
    const std::size_t neighbor = (e / cell) * cell + (e % cell + 1) % cell;
    kernel.shard(shard).schedule_every(
        sim::millis(100), [&net, e, neighbor] {
          net.send(net::NodeId{static_cast<std::uint32_t>(e)},
                   net::NodeId{static_cast<std::uint32_t>(neighbor)},
                   ShardBeat{});
        });
  }
  for (std::size_t e = 0; e < population / 2; ++e) {
    net.send(ids[e], ids[e + population / 2], ShardPing{10});
  }

  ShardedResult r;
  const double t0 = now_s();
  kernel.run_until(sim::millis(static_cast<std::int64_t>(sim_seconds * 1e3)));
  r.phase.wall_s = now_s() - t0;
  r.phase.events = kernel.executed_events();
  r.phase.messages = net.messages_delivered();
  r.phase.bytes = net.bytes_sent();
  r.sent = net.messages_sent();
  r.delivered = net.messages_delivered();
  r.dropped = net.messages_dropped();
  r.bytes = net.bytes_sent();
  r.hash = net.delivery_hash();
  r.windows = kernel.windows();
  r.cross = net.messages_cross_shard();
  return r;
}

}  // namespace
}  // namespace riot::bench

int main(int argc, char** argv) {
  using namespace riot;
  using namespace riot::bench;

  std::vector<std::size_t> populations = {1000, 5000, 10000};
  std::vector<std::size_t> sharded_populations = {10000, 100000};
  double sim_seconds = 60.0;
  double min_kernel_eps = 0.0;
  double min_delivery_eps = 0.0;
  double max_delivery_allocs = -1.0;  // < 0: floor disabled
  double min_sharded_eps = 0.0;
  double min_shard_speedup = 0.0;  // 4-shard vs 1-shard; needs >= 4 cores
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trim") {
      populations = {1000};
      sharded_populations = {1000};
      sim_seconds = 5.0;
    } else if (arg.rfind("--sim-seconds=", 0) == 0) {
      sim_seconds = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--populations=", 0) == 0) {
      populations.clear();
      const char* p = arg.c_str() + 14;
      while (*p != '\0') {
        populations.push_back(static_cast<std::size_t>(std::atol(p)));
        p = std::strchr(p, ',');
        if (p == nullptr) break;
        ++p;
      }
    } else if (arg.rfind("--min-kernel-eps=", 0) == 0) {
      min_kernel_eps = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--min-delivery-eps=", 0) == 0) {
      min_delivery_eps = std::atof(arg.c_str() + 19);
    } else if (arg.rfind("--max-delivery-allocs=", 0) == 0) {
      max_delivery_allocs = std::atof(arg.c_str() + 22);
    } else if (arg.rfind("--min-sharded-eps=", 0) == 0) {
      min_sharded_eps = std::atof(arg.c_str() + 18);
    } else if (arg.rfind("--min-shard-speedup=", 0) == 0) {
      min_shard_speedup = std::atof(arg.c_str() + 20);
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      return 2;
    }
  }

  banner("scale: kernel + fabric throughput",
         "events/sec and bytes/event at 1k/5k/10k endpoints — the floor "
         "every kernel PR is measured against");

  BenchReport report("scale");
  report.config("seed", 42.0);
  report.config("sim_seconds", sim_seconds);
  report.config("cluster_size", static_cast<double>(kClusterSize));
  report.set_sim_time_s(sim_seconds * static_cast<double>(populations.size()));

  Table table({"population", "phase", "events", "wall_s", "events_per_s",
               "messages", "bytes_per_ev", "allocs_per_ev", "rss_mb"});
  table.tee_to(report);
  table.print_header();

  bool floor_ok = true;
  for (const std::size_t population : populations) {
    const PhaseResult kernel = run_kernel(population, sim_seconds);
    table.print_row({fmt_u(population), "kernel", fmt_u(kernel.events),
                     fmt(kernel.wall_s), fmt(kernel.events_per_s(), 0), "0",
                     "0", "-", fmt(max_rss_mb(), 1)});
    const PhaseResult stack = run_stack(population, sim_seconds, 42);
    table.print_row({fmt_u(population), "stack", fmt_u(stack.events),
                     fmt(stack.wall_s), fmt(stack.events_per_s(), 0),
                     fmt_u(stack.messages), fmt(stack.bytes_per_event(), 1),
                     fmt(stack.allocs_per_event(), 3), fmt(max_rss_mb(), 1)});
    const PhaseResult delivery = run_delivery(population, sim_seconds);
    table.print_row({fmt_u(population), "delivery", fmt_u(delivery.events),
                     fmt(delivery.wall_s), fmt(delivery.events_per_s(), 0),
                     fmt_u(delivery.messages),
                     fmt(delivery.bytes_per_event(), 1),
                     fmt(delivery.allocs_per_event(), 3),
                     fmt(max_rss_mb(), 1)});
    report.metric("kernel_events_per_s_" + std::to_string(population),
                  kernel.events_per_s());
    report.metric("stack_events_per_s_" + std::to_string(population),
                  stack.events_per_s());
    report.metric("stack_bytes_per_event_" + std::to_string(population),
                  stack.bytes_per_event());
    report.metric("stack_allocs_per_event_" + std::to_string(population),
                  stack.allocs_per_event());
    report.metric("delivery_events_per_s_" + std::to_string(population),
                  delivery.events_per_s());
    report.metric("delivery_allocs_per_event_" + std::to_string(population),
                  delivery.allocs_per_event());
    if (min_kernel_eps > 0.0 && kernel.events_per_s() < min_kernel_eps) {
      std::fprintf(stderr,
                   "scale-check FAILED: kernel %.0f events/s at %zu "
                   "endpoints is below the floor %.0f\n",
                   kernel.events_per_s(), population, min_kernel_eps);
      floor_ok = false;
    }
    if (min_delivery_eps > 0.0 &&
        delivery.events_per_s() < min_delivery_eps) {
      std::fprintf(stderr,
                   "scale-check FAILED: delivery %.0f events/s at %zu "
                   "endpoints is below the floor %.0f\n",
                   delivery.events_per_s(), population, min_delivery_eps);
      floor_ok = false;
    }
    if (max_delivery_allocs >= 0.0 &&
        delivery.allocs_per_event() > max_delivery_allocs) {
      std::fprintf(stderr,
                   "scale-check FAILED: %.3f heap allocations per "
                   "delivered message at %zu endpoints (%llu allocations "
                   "in the measured window; ceiling %.3f)\n",
                   delivery.allocs_per_event(), population,
                   static_cast<unsigned long long>(delivery.allocs),
                   max_delivery_allocs);
      floor_ok = false;
    }
  }
  // --- sharded ladder -------------------------------------------------------
  const unsigned cpus = std::thread::hardware_concurrency();
  for (const std::size_t population : sharded_populations) {
    // Keep the 100k rung's wall time in check: half the simulated window.
    const double sharded_s = population >= 100000 ? 1.0 : 2.0;
    ShardedResult baseline{};
    double eps1 = 0.0;
    double eps4 = 0.0;
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const ShardedResult r = run_sharded(population, shards, sharded_s, 42);
      table.print_row(
          {fmt_u(population), "shard-" + std::to_string(shards),
           fmt_u(r.phase.events), fmt(r.phase.wall_s),
           fmt(r.phase.events_per_s(), 0), fmt_u(r.delivered),
           fmt(r.phase.bytes_per_event(), 1), "-", fmt(max_rss_mb(), 1)});
      const std::string tag =
          std::to_string(population) + "_shards" + std::to_string(shards);
      report.metric("sharded_events_per_s_" + tag, r.phase.events_per_s());
      report.metric("sharded_windows_" + tag,
                    static_cast<double>(r.windows));
      report.metric("sharded_cross_" + tag, static_cast<double>(r.cross));
      if (shards == 1) {
        baseline = r;
        eps1 = r.phase.events_per_s();
        if (min_sharded_eps > 0.0 && eps1 < min_sharded_eps) {
          std::fprintf(stderr,
                       "scale-check FAILED: sharded(1) %.0f events/s at %zu "
                       "endpoints is below the floor %.0f\n",
                       eps1, population, min_sharded_eps);
          floor_ok = false;
        }
      } else {
        if (shards == 4) eps4 = r.phase.events_per_s();
        // The non-negotiable: every ladder rung executes the identical run.
        const bool identical =
            r.phase.events == baseline.phase.events &&
            r.sent == baseline.sent && r.delivered == baseline.delivered &&
            r.dropped == baseline.dropped && r.bytes == baseline.bytes &&
            r.hash == baseline.hash;
        if (!identical) {
          std::fprintf(
              stderr,
              "scale-check FAILED: %zu-shard run diverged from single-shard "
              "at %zu endpoints (events %llu vs %llu, hash %016llx vs "
              "%016llx)\n",
              shards, population,
              static_cast<unsigned long long>(r.phase.events),
              static_cast<unsigned long long>(baseline.phase.events),
              static_cast<unsigned long long>(r.hash),
              static_cast<unsigned long long>(baseline.hash));
          floor_ok = false;
        }
      }
    }
    // One line per population, comparable across commits: the gate above
    // holds every rung to this 1-shard fingerprint.
    char hash_hex[17];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(baseline.hash));
    std::printf(
        "sharded-fingerprint %zu events=%llu sent=%llu delivered=%llu "
        "dropped=%llu bytes=%llu hash=%s\n",
        population, static_cast<unsigned long long>(baseline.phase.events),
        static_cast<unsigned long long>(baseline.sent),
        static_cast<unsigned long long>(baseline.delivered),
        static_cast<unsigned long long>(baseline.dropped),
        static_cast<unsigned long long>(baseline.bytes), hash_hex);
    report.config("sharded_hash_" + std::to_string(population), hash_hex);
    if (eps1 > 0.0) {
      report.metric("sharded_speedup4_" + std::to_string(population),
                    eps4 / eps1);
    }
    if (min_shard_speedup > 0.0) {
      if (cpus >= 4) {
        if (eps4 < min_shard_speedup * eps1) {
          std::fprintf(stderr,
                       "scale-check FAILED: 4-shard speedup %.2fx at %zu "
                       "endpoints is below the floor %.2fx\n",
                       eps1 > 0.0 ? eps4 / eps1 : 0.0, population,
                       min_shard_speedup);
          floor_ok = false;
        }
      } else {
        std::fprintf(stderr,
                     "scale-check: skipping the %.2fx shard-speedup floor — "
                     "only %u hardware threads (need >= 4 to measure "
                     "parallelism honestly)\n",
                     min_shard_speedup, cpus);
      }
    }
  }

  report.metric("rss_mb_peak", max_rss_mb());
  report.write();
  return floor_ok ? 0 : 1;
}
