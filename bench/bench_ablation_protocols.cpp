// Ablation A1 — decentralized-protocol parameters.
//
// DESIGN.md calls out the protocol knobs behind ML4's behaviour. This
// ablation quantifies their trade-offs:
//
//   SWIM:  protocol period and suspect timeout vs detection latency and
//          per-member bandwidth (the classic accuracy/cost trade);
//   Raft:  cluster size vs election/commit latency and crash tolerance;
//   Gossip: fanout vs rounds-to-convergence and message cost.
#include <memory>

#include "bench_util.hpp"
#include "coord/gossip.hpp"
#include "coord/raft.hpp"
#include "membership/swim.hpp"
#include "net/world.hpp"

using namespace riot;

namespace {

void swim_sweep(bench::BenchReport& report) {
  std::printf("SWIM: detection latency vs protocol cost (8 members):\n");
  bench::Table table({"period_ms", "suspect_ms", "detect_s_mean",
                      "msgs/member/s", "false_pos"});
  table.tee_to(report);
  table.print_header();
  struct Setting {
    sim::SimTime period, suspect;
  };
  const Setting settings[] = {
      {sim::millis(250), sim::millis(1000)},
      {sim::millis(500), sim::millis(1500)},
      {sim::seconds(1), sim::seconds(3)},
      {sim::seconds(2), sim::seconds(6)},
  };
  for (const auto& setting : settings) {
    double detect_sum = 0.0;
    int detected = 0;
    std::uint64_t false_positives = 0;
    double msg_rate = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      net::World h(seed);
      membership::SwimConfig cfg;
      cfg.period = setting.period;
      cfg.ping_timeout = setting.period / 3;
      cfg.suspect_timeout = setting.suspect;
      std::vector<std::unique_ptr<membership::SwimMember>> members;
      for (int i = 0; i < 8; ++i) {
        members.push_back(
            std::make_unique<membership::SwimMember>(h.network, cfg));
      }
      for (auto& m : members) {
        for (auto& peer : members) {
          if (m != peer) m->add_peer(peer->id());
        }
      }
      for (auto& m : members) m->start();
      h.sim.run_until(sim::seconds(30));
      false_positives += h.trace.count("swim", "dead");
      const auto sent_before = h.network.messages_sent();
      members[0]->crash();
      const auto crash_at = h.sim.now();
      h.sim.run_until(sim::seconds(90));
      msg_rate += static_cast<double>(h.network.messages_sent() -
                                      sent_before) /
                  60.0 / 8.0;
      if (const auto* dead = h.trace.first_after("swim", "dead", crash_at)) {
        detect_sum += sim::to_seconds(dead->at - crash_at);
        ++detected;
      }
    }
    table.print_row(
        {bench::fmt(sim::to_millis(setting.period), 0),
         bench::fmt(sim::to_millis(setting.suspect), 0),
         detected ? bench::fmt(detect_sum / detected, 2) : "none",
         bench::fmt(msg_rate / 5.0, 1), bench::fmt_u(false_positives)});
  }
}

void raft_sweep(bench::BenchReport& report) {
  std::printf("\nRaft: cluster size vs commit latency and fault tolerance:\n");
  bench::Table table({"peers", "commit_ms_mean", "reelect_ms",
                      "tolerates"});
  table.tee_to(report);
  table.print_header();
  for (const int n : {1, 3, 5, 7, 9}) {
    net::World h(3);
    std::vector<std::unique_ptr<coord::RaftStorage>> storages;
    std::vector<std::unique_ptr<coord::RaftPeer>> peers;
    std::vector<net::NodeId> ids;
    std::vector<sim::SimTime> commit_times;
    for (int i = 0; i < n; ++i) {
      storages.push_back(std::make_unique<coord::RaftStorage>());
      peers.push_back(
          std::make_unique<coord::RaftPeer>(h.network, *storages.back()));
      ids.push_back(peers.back()->id());
    }
    for (auto& p : peers) {
      p->set_peers(ids);
      p->start();
    }
    h.sim.run_until(sim::seconds(5));
    coord::RaftPeer* leader = nullptr;
    for (auto& p : peers) {
      if (p->is_leader()) leader = p.get();
    }
    if (leader == nullptr) {
      table.print_row({std::to_string(n), "no-leader", "-", "-"});
      continue;
    }
    // Commit latency: propose 50 commands, measure propose->apply at the
    // leader.
    double commit_sum = 0.0;
    int committed = 0;
    sim::SimTime proposed_at{};
    leader->on_apply([&](std::uint64_t, const coord::Command&) {
      commit_sum += sim::to_millis(h.sim.now() - proposed_at);
      ++committed;
    });
    for (int i = 0; i < 50; ++i) {
      proposed_at = h.sim.now();
      leader->propose("c" + std::to_string(i));
      h.sim.run_for(sim::millis(400));
    }
    // Re-election latency after leader crash.
    leader->crash();
    const auto crash_at = h.sim.now();
    h.sim.run_until(crash_at + sim::seconds(30));
    sim::SimTime reelect{};
    if (const auto* elected =
            h.trace.first_after("raft", "leader", crash_at)) {
      reelect = elected->at - crash_at;
    }
    table.print_row(
        {std::to_string(n),
         committed ? bench::fmt(commit_sum / committed, 1) : "-",
         n > 1 ? bench::fmt(sim::to_millis(reelect), 0) : "n/a",
         std::to_string((n - 1) / 2) + " crashes"});
  }
}

void gossip_sweep(bench::BenchReport& report) {
  std::printf("\nGossip: fanout vs dissemination time (24 nodes):\n");
  bench::Table table({"fanout", "converge_s", "msgs_total"});
  table.tee_to(report);
  table.print_header();
  for (const int fanout : {1, 2, 3, 4, 6}) {
    net::World h(9);
    coord::GossipConfig cfg;
    cfg.fanout = fanout;
    cfg.round_interval = sim::millis(250);
    std::vector<std::unique_ptr<coord::GossipNode>> nodes;
    std::vector<net::NodeId> ids;
    for (int i = 0; i < 24; ++i) {
      nodes.push_back(std::make_unique<coord::GossipNode>(h.network, cfg));
      ids.push_back(nodes.back()->id());
    }
    for (auto& node : nodes) {
      node->set_peers(ids);
      node->start();
    }
    nodes[0]->put("k", "v");
    const auto write_at = h.sim.now();
    double converge_s = -1.0;
    for (int tick = 0; tick < 400; ++tick) {
      h.sim.run_for(sim::millis(50));
      bool all = true;
      for (auto& node : nodes) {
        all = all && node->get("k").has_value();
      }
      if (all) {
        converge_s = sim::to_seconds(h.sim.now() - write_at);
        break;
      }
    }
    table.print_row({std::to_string(fanout), bench::fmt(converge_s, 2),
                     bench::fmt_u(h.network.messages_sent())});
  }
}

}  // namespace

int main() {
  bench::banner("Ablation A1: decentralization-protocol parameters",
                "Trade-off curves for the ML4 building blocks.");
  bench::BenchReport report("bench_ablation_protocols");
  report.config("seed", 1.0);  // sweeps run seeds 1..5 per point
  report.config("seeds_per_point", 5.0);
  swim_sweep(report);
  raft_sweep(report);
  gossip_sweep(report);
  return report.write() ? 0 : 1;
}
