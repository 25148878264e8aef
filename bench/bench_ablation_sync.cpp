// Ablation A2 — data synchronization strategy.
//
// The same replicated-state workload (4 replicas, concurrent writes under
// loss and a partition) with three strategies:
//
//   lww     — last-writer-wins registers (simple, loses concurrent writes)
//   orset   — OR-Set CRDT (keeps everything, tombstone cost)
//   mvreg   — multi-value register (exposes conflicts to the app)
//
// measured: lost updates after heal, state convergence, residual conflict
// count, and message cost. This grounds DESIGN.md's claim that LWW is not
// enough for ML4 despite being the industry default.
#include <memory>

#include "bench_util.hpp"
#include "data/crdt_store.hpp"
#include "net/world.hpp"

using namespace riot;

namespace {

struct Outcome {
  std::uint64_t writes = 0;
  std::uint64_t surviving = 0;  // distinct writes visible after heal
  std::uint64_t conflicts = 0;  // residual siblings (mvreg only)
  bool converged = true;        // all replicas identical
  std::uint64_t messages = 0;
};

Outcome run(const std::string& strategy, std::uint64_t seed) {
  net::World h(seed);
  constexpr int kReplicas = 4;
  std::vector<std::unique_ptr<data::CrdtStore>> stores;
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kReplicas; ++i) {
    stores.push_back(std::make_unique<data::CrdtStore>(h.network));
    ids.push_back(stores.back()->id());
  }
  for (auto& store : stores) {
    std::vector<net::NodeId> peers;
    for (const auto id : ids) {
      if (id != store->id()) peers.push_back(id);
    }
    store->set_replicas(peers);
    store->start();
  }
  h.network.set_ambient_loss(0.05);

  Outcome outcome;
  sim::Rng rng(seed * 131);
  std::uint64_t sequence = 0;
  const auto write = [&](data::CrdtStore& store) {
    const std::string value = "w" + std::to_string(++sequence);
    if (strategy == "lww") {
      store.lww("reg").set(value, store.lww_now(), store.replica_id());
    } else if (strategy == "orset") {
      store.orset("set").add(value, store.replica_id());
    } else {
      store.mvreg("reg").set(value, store.replica_id());
    }
    ++outcome.writes;
  };

  // Phase 1: 20s of concurrent writes, 2/s across random replicas.
  const auto writer = h.sim.schedule_every(sim::millis(500), [&] {
    write(*stores[rng.below(kReplicas)]);
  });
  h.sim.run_until(sim::seconds(20));
  // Phase 2: partition 2|2 for 20s, writes continue on both sides.
  h.network.partition({{ids[0], ids[1]}, {ids[2], ids[3]}});
  h.sim.run_until(sim::seconds(40));
  // Phase 3: heal, stop writing, drain until anti-entropy settles.
  h.sim.cancel(writer);
  h.network.heal_partition();
  h.sim.run_until(sim::seconds(80));

  // Count surviving distinct writes at replica 0 and check convergence.
  if (strategy == "lww") {
    const auto value = stores[0]->lww("reg").value();
    outcome.surviving = value.has_value() ? 1 : 0;  // by construction
    for (auto& store : stores) {
      outcome.converged = outcome.converged &&
                          store->lww("reg").value() == value;
    }
  } else if (strategy == "orset") {
    outcome.surviving = stores[0]->orset("set").size();
    for (auto& store : stores) {
      outcome.converged =
          outcome.converged &&
          store->orset("set").elements() == stores[0]->orset("set").elements();
    }
  } else {
    outcome.surviving = stores[0]->mvreg("reg").sibling_count();
    outcome.conflicts = outcome.surviving > 1 ? outcome.surviving : 0;
    for (auto& store : stores) {
      outcome.converged = outcome.converged &&
                          store->mvreg("reg").sibling_count() ==
                              stores[0]->mvreg("reg").sibling_count();
    }
  }
  outcome.messages = h.network.messages_sent();
  return outcome;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation A2: synchronization strategy under loss + partition",
      "4 replicas, 2 writes/s, 5% loss, 20s partition. What survives?");
  bench::BenchReport report("bench_ablation_sync");
  report.config("seed", 5.0);
  bench::Table table({"strategy", "writes", "surviving", "conflicts",
                      "converged", "messages"});
  table.tee_to(report);
  table.print_header();
  for (const std::string strategy : {"lww", "orset", "mvreg"}) {
    const auto outcome = run(strategy, 5);
    table.print_row({strategy, bench::fmt_u(outcome.writes),
                     bench::fmt_u(outcome.surviving),
                     bench::fmt_u(outcome.conflicts),
                     outcome.converged ? "yes" : "no",
                     bench::fmt_u(outcome.messages)});
  }
  std::printf(
      "\nReading: the OR-Set retains every accepted write across the\n"
      "partition (surviving == writes); LWW converges but collapses the\n"
      "history to one value; MV-register surfaces the partition-era\n"
      "conflict as siblings for the application to resolve.\n");
  return report.write() ? 0 : 1;
}
