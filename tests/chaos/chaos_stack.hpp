// Full-stack chaos scenario: the harness's ChaosHooks and the protocol
// checker library (src/*/chaos_checks.hpp) bound to the real stack.
//
// Topology is cell-sharded so the same scenario scales from a 5-node
// smoke run to a 1000-endpoint soak: `cells` disjoint cells of
// node_count/cells logical nodes each. Every cell runs its own Raft group
// and CRDT replica set (quorum protocols stay quorum-sized); SWIM
// membership and the gossip mesh span all nodes (dissemination protocols
// are what should scale); one MapeLoop host watches everything.
//
// Each logical node co-locates one RaftPeer, one SwimMember, one
// CrdtStore, one GossipNode and one TelemetrySource (five network
// endpoints); the MapeLoop rides alongside as an extra, un-crashable
// endpoint so the adaptation layer's liveness is part of every run. Chaos
// actions fan out to every endpoint of the targeted logical node — a
// "crash" takes the whole co-located stack down, a clock-skew skews every
// timestamp that node stamps.
//
// Workloads (Raft client proposals per cell, CRDT mutations, gossip puts)
// run until the schedule horizon and then stop, so the disruption-free
// cooldown is also write-quiescent and the eventual invariants (log
// agreement, CRDT/gossip convergence) compare settled states.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/chaos_checks.hpp"
#include "adapt/mape.hpp"
#include "chaos_run.hpp"
#include "coord/chaos_checks.hpp"
#include "coord/gossip.hpp"
#include "coord/raft.hpp"
#include "data/chaos_checks.hpp"
#include "data/crdt_store.hpp"
#include "membership/chaos_checks.hpp"
#include "membership/swim.hpp"
#include "net/chaos_hooks.hpp"

namespace riot::chaos_test {

class ChaosStack {
 public:
  ChaosStack(const sim::chaos::ChaosSchedule& schedule,
             const sim::chaos::ChaosProfile& profile, std::size_t cells = 1)
      : chaos_(schedule, profile, 0x5eed5eed5eed5eedULL),
        n_(schedule.node_count != 0 ? schedule.node_count
                                    : profile.node_count),
        cells_(cells == 0 || cells > n_ ? 1 : cells) {
    gossip_last_.resize(cells_);
    build_nodes();
    wire_hooks();
    register_invariants();
  }

  /// Run the schedule through the shared chaos loop (ChaosRun::run).
  sim::chaos::ChaosRunReport run() {
    return chaos_.run([this] { start_workloads(); });
  }

  [[nodiscard]] sim::TraceLog& trace() { return chaos_.trace; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return chaos_.metrics; }
  [[nodiscard]] const sim::Simulation& simulation() const {
    return chaos_.sim;
  }
  /// Open for scenario-specific extra invariants (e.g. a soak test's
  /// deliberately-violated canary); register before run().
  [[nodiscard]] sim::chaos::InvariantRegistry& registry() {
    return chaos_.registry;
  }
  [[nodiscard]] std::size_t cells() const { return cells_; }
  [[nodiscard]] std::size_t node_count() const { return n_; }
  [[nodiscard]] std::size_t endpoint_count() const { return 5 * n_ + 1; }
  [[nodiscard]] const membership::SwimMember& swim(std::size_t i) const {
    return *swims_[i];
  }

  /// ScheduleRunFn that builds a fresh stack per schedule — the form
  /// ChaosExplorer consumes. `prepare` (optional) customizes each stack
  /// before it runs.
  static sim::chaos::ScheduleRunFn runner(
      sim::chaos::ChaosProfile profile, std::size_t cells = 1,
      std::function<void(ChaosStack&)> prepare = {}) {
    return [profile, cells,
            prepare](const sim::chaos::ChaosSchedule& schedule) {
      ChaosStack stack(schedule, profile, cells);
      if (prepare) prepare(stack);
      return stack.run();
    };
  }

 private:
  // Endpoint ids are assigned in registration order: logical node i owns
  // endpoints 5i..5i+4 (raft, swim, crdt, gossip, telemetry); the loop
  // host is 5n.
  void build_nodes() {
    for (std::size_t i = 0; i < n_; ++i) {
      storages_.push_back(std::make_unique<coord::RaftStorage>());
      rafts_.push_back(std::make_unique<coord::RaftPeer>(chaos_.network,
                                                         *storages_.back()));
      // At soak scale a refutation must ride enough piggyback slots to
      // outrun 199 members' worth of concurrent updates; the default 6
      // slots are tuned for small meshes.
      membership::SwimConfig swim_cfg;
      if (n_ > 50) swim_cfg.max_piggyback = 16;
      swims_.push_back(
          std::make_unique<membership::SwimMember>(chaos_.network, swim_cfg));
      crdts_.push_back(std::make_unique<data::CrdtStore>(chaos_.network));
      gossips_.push_back(std::make_unique<coord::GossipNode>(chaos_.network));
      telemetry_.push_back(std::make_unique<adapt::TelemetrySource>(
          chaos_.network, net::kInvalidNode));
      // A chaos action on logical node i fans out to these, in this order.
      endpoints_.push_back({rafts_[i].get(), swims_[i].get(), crdts_[i].get(),
                            gossips_[i].get(), telemetry_[i].get()});
    }
    loop_ = std::make_unique<adapt::MapeLoop>(chaos_.network);

    // Per-cell Raft groups and CRDT replica sets.
    raft_checkers_.resize(cells_);
    for (std::size_t c = 0; c < cells_; ++c) {
      std::vector<net::NodeId> raft_ids;
      for (std::size_t i = cell_begin(c); i < cell_end(c); ++i) {
        raft_ids.push_back(rafts_[i]->id());
      }
      std::vector<data::CrdtStore*> replicas;
      for (std::size_t i = cell_begin(c); i < cell_end(c); ++i) {
        const std::size_t member = i - cell_begin(c);
        rafts_[i]->set_peers(raft_ids);
        rafts_[i]->on_apply([this, c, member](std::uint64_t index,
                                              const coord::Command& cmd) {
          raft_checkers_[c].observe_apply(member, index, cmd);
        });
        raft_checkers_[c].add_peer(rafts_[i].get(), storages_[i].get());
        election_safety_.map_node(rafts_[i]->id().value,
                                  static_cast<std::uint32_t>(c));
        std::vector<net::NodeId> peers;
        for (std::size_t j = cell_begin(c); j < cell_end(c); ++j) {
          if (j != i) peers.push_back(crdts_[j]->id());
        }
        crdts_[i]->set_replicas(std::move(peers));
        replicas.push_back(crdts_[i].get());
      }
      crdt_checker_.add_group("cell" + std::to_string(c),
                              std::move(replicas));
    }

    // Global planes: SWIM membership, gossip mesh, telemetry -> MAPE.
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) {
        if (j != i) swims_[i]->add_peer(swims_[j]->id());
      }
      std::vector<net::NodeId> gossip_peers;
      for (std::size_t j = 0; j < n_; ++j) {
        if (j != i) gossip_peers.push_back(gossips_[j]->id());
      }
      gossips_[i]->set_peers(std::move(gossip_peers));
      gossip_checker_.add_node(gossips_[i].get());
      swim_checker_.add_member(swims_[i].get());
      telemetry_[i]->set_loop_host(loop_->id());
      telemetry_[i]->add_probe("commit_index_" + std::to_string(i),
                               [this, i] {
                                 return static_cast<double>(
                                     rafts_[i]->commit_index());
                               });
    }
    mape_checker_.attach(*loop_);
    loop_->add_analyzer("telemetry_fresh", [this](
                                               const adapt::KnowledgeBase& kb)
                                               -> std::optional<
                                                   adapt::Violation> {
      for (std::size_t i = 0; i < n_; ++i) {
        const auto age =
            kb.age("commit_index_" + std::to_string(i), loop_now());
        // 8s tolerates the worst combination the profile allows: a 5s
        // crash window plus 2s of source-side clock skew.
        if (age && *age > sim::seconds(8)) {
          return adapt::Violation{"telemetry_fresh", 1.0,
                                  "stale telemetry from node " +
                                      std::to_string(i)};
        }
      }
      return std::nullopt;
    });
  }

  void wire_hooks() {
    chaos_.hooks = net::chaos_hooks_for(chaos_.network, endpoints_);
    // An owner that reboots republishes the key it owns, regenerated from
    // its source (the workload's intent), not from the wiped store.
    // Without this, a final pre-crash put that never survived a gossip
    // round dies with the origin and no amount of anti-entropy can produce
    // it — the convergence expectation would be unmeetable. The wrapper
    // captures only `this`, so copying the hooks still allocates nothing.
    restart_endpoints_ = std::exchange(
        chaos_.hooks.restart_node, [this](std::uint32_t i) {
          restart_endpoints_(i);
          const std::size_t per = n_ / cells_;
          if (i % per == 0 && i / per < cells_ &&
              !gossip_last_[i / per].empty()) {
            const std::size_t c = i / per;
            gossips_[i]->put("cell" + std::to_string(c), gossip_last_[c]);
          }
        });
  }

  void register_invariants() {
    // -- Safety (checked while the schedule runs) --------------------------
    chaos_.registry.add_always("raft_election_safety", [this] {
      return election_safety_.check();
    });
    chaos_.registry.add_always("raft_sm_safety", [this] {
      return per_cell([](const coord::chaos::RaftGroupChecker& g) {
        return g.sm_safety();
      });
    });

    // -- Convergence (meaningful only after the quiescent cooldown) --------
    chaos_.registry.add_eventually("raft_leader_agreement", [this] {
      return per_cell([](const coord::chaos::RaftGroupChecker& g) {
        return g.leader_agreement();
      });
    });
    chaos_.registry.add_eventually("raft_log_agreement", [this] {
      return per_cell([](const coord::chaos::RaftGroupChecker& g) {
        return g.log_agreement();
      });
    });
    chaos_.registry.add_eventually("raft_no_lost_acked_writes", [this] {
      return per_cell([](const coord::chaos::RaftGroupChecker& g) {
        return g.no_lost_acked();
      });
    });
    chaos_.registry.add_eventually("swim_membership_convergence", [this] {
      return swim_checker_.check();
    });
    chaos_.registry.add_eventually("crdt_convergence", [this] {
      return crdt_checker_.check();
    });
    chaos_.registry.add_eventually("gossip_convergence", [this] {
      return gossip_checker_.check();
    });
    chaos_.registry.add_eventually("mape_loop_live", [this] {
      return mape_checker_.loop_live(chaos_.sim.now(), sim::seconds(2));
    });
    chaos_.registry.add_eventually("mape_quiescent", [this] {
      return mape_checker_.quiescent();
    });
    chaos_.registry.add_eventually("mape_detection_to_recovery", [this] {
      // A violation detected mid-fault must clear within one worst-case
      // window plus settling slack once the fault reverts.
      return mape_checker_.recovered_within(
          chaos_.profile.max_duration + sim::seconds(10), chaos_.sim.now());
    });
  }

  void start_workloads() {
    for (std::size_t i = 0; i < n_; ++i) {
      rafts_[i]->start();
      swims_[i]->start();
      crdts_[i]->start();
      gossips_[i]->start();
      telemetry_[i]->start();
    }
    loop_->start();

    // Raft clients: per cell, one proposal per tick to whichever peer
    // claims leadership; proposals that land on a deposed leader may be
    // lost — only majority-applied ("acked") commands must survive.
    chaos_.sim.schedule_every(sim::millis(250), [this] {
      if (chaos_.sim.now() >= chaos_.horizon()) return;
      for (std::size_t c = 0; c < cells_; ++c) {
        for (std::size_t i = cell_begin(c); i < cell_end(c); ++i) {
          if (rafts_[i]->alive() && rafts_[i]->is_leader()) {
            rafts_[i]->propose("c" + std::to_string(c) + "w" +
                               std::to_string(next_write_++));
            break;
          }
        }
      }
    });

    // CRDT clients: every alive replica keeps mutating shared objects.
    chaos_.sim.schedule_every(sim::millis(400), [this] {
      if (chaos_.sim.now() >= chaos_.horizon()) return;
      for (std::size_t i = 0; i < n_; ++i) {
        if (!crdts_[i]->alive()) continue;
        data::CrdtStore& store = *crdts_[i];
        store.gcounter("events").increment(store.replica_id());
        store.orset("tags").add("t" + std::to_string(crdt_tick_ % 7),
                                store.replica_id());
        store.lww("mode").set("m" + std::to_string(crdt_tick_),
                              store.lww_now(), store.replica_id());
      }
      ++crdt_tick_;
    });

    // Gossip writers: one origin per cell owns one key (single-origin
    // versioning keeps "latest value" well-defined); the checker expects
    // whatever value the origin last actually wrote.
    chaos_.sim.schedule_every(sim::millis(600), [this] {
      if (chaos_.sim.now() >= chaos_.horizon()) return;
      for (std::size_t c = 0; c < cells_; ++c) {
        coord::GossipNode& origin = *gossips_[cell_begin(c)];
        if (!origin.alive()) continue;
        const std::string key = "cell" + std::to_string(c);
        const std::string value = "v" + std::to_string(gossip_tick_);
        origin.put(key, value);
        gossip_checker_.expect(key, value);
        gossip_last_[c] = value;
      }
      ++gossip_tick_;
    });
  }

  // --- plumbing -------------------------------------------------------------

  /// First violation across cells, prefixed with the cell that raised it.
  std::optional<std::string> per_cell(
      const std::function<std::optional<std::string>(
          const coord::chaos::RaftGroupChecker&)>& check) const {
    for (std::size_t c = 0; c < cells_; ++c) {
      if (auto v = check(raft_checkers_[c])) {
        return "cell" + std::to_string(c) + ": " + *v;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t cell_begin(std::size_t c) const {
    return c * (n_ / cells_);
  }
  [[nodiscard]] std::size_t cell_end(std::size_t c) const {
    return c + 1 == cells_ ? n_ : (c + 1) * (n_ / cells_);
  }
  [[nodiscard]] sim::SimTime loop_now() const {
    return chaos_.sim.now() + chaos_.network.clock_skew(loop_->id());
  }

  ChaosRun chaos_;
  std::size_t n_;
  std::size_t cells_;

  std::vector<std::unique_ptr<coord::RaftStorage>> storages_;
  std::vector<std::unique_ptr<coord::RaftPeer>> rafts_;
  std::vector<std::unique_ptr<membership::SwimMember>> swims_;
  std::vector<std::unique_ptr<data::CrdtStore>> crdts_;
  std::vector<std::unique_ptr<coord::GossipNode>> gossips_;
  std::vector<std::unique_ptr<adapt::TelemetrySource>> telemetry_;
  std::unique_ptr<adapt::MapeLoop> loop_;
  net::LogicalNodes endpoints_;
  // The helper's restart hook, wrapped by wire_hooks().
  std::function<void(std::uint32_t)> restart_endpoints_;

  // Checker library instances (src/*/chaos_checks.hpp).
  coord::chaos::ElectionSafetyChecker election_safety_{chaos_.trace};
  std::vector<coord::chaos::RaftGroupChecker> raft_checkers_;
  membership::chaos::SwimConvergenceChecker swim_checker_;
  data::chaos::CrdtConvergenceChecker crdt_checker_;
  coord::chaos::GossipConvergenceChecker gossip_checker_;
  adapt::chaos::MapeRecoveryChecker mape_checker_;

  std::uint64_t next_write_ = 0;
  std::uint64_t crdt_tick_ = 0;
  std::uint64_t gossip_tick_ = 0;
  // Last value each cell's origin wrote, for republish-on-reboot.
  std::vector<std::string> gossip_last_;
};

/// Reduced-violence profile for CI smoke runs (< 30 s wall including
/// shrinking): shorter horizon, fewer and shorter windows.
inline sim::chaos::ChaosProfile smoke_profile() {
  sim::chaos::ChaosProfile p;
  p.node_count = 5;
  p.warmup = sim::seconds(3);
  p.horizon = sim::seconds(12);
  p.cooldown = sim::seconds(10);
  p.min_actions = 2;
  p.max_actions = 5;
  p.max_duration = sim::seconds(3);
  return p;
}

/// Soak envelope (`ctest -L scale`): 200 logical nodes x 5 endpoints + 1
/// MAPE host = 1001 endpoints, sharded into 40 five-node cells, under a
/// denser schedule. max_concurrent_down stays small relative to a cell so
/// every Raft group keeps a quorum reachable.
inline sim::chaos::ChaosProfile soak_profile() {
  sim::chaos::ChaosProfile p;
  p.node_count = 200;
  p.warmup = sim::seconds(4);
  p.horizon = sim::seconds(24);
  p.cooldown = sim::seconds(20);
  p.min_actions = 8;
  p.max_actions = 14;
  p.max_duration = sim::seconds(5);
  p.max_concurrent_down = 2;
  return p;
}

inline constexpr std::size_t kSoakCells = 40;

}  // namespace riot::chaos_test
