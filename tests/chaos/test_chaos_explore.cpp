// End-to-end exploration:
//  - a deliberately broken protocol (ack-before-replicate KV with no
//    retransmission) whose bug the explorer must find, shrink to a handful
//    of disruptions, and express as a replayable JSON repro;
//  - smoke runs of the full resilient stack under fixed seeds, where every
//    invariant must hold (the CI `chaos_smoke` target).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "chaos_run.hpp"
#include "chaos_stack.hpp"
#include "net/chaos_hooks.hpp"
#include "net/node.hpp"

namespace riot::chaos_test {
namespace {

using namespace sim::chaos;

// --- The seeded bug ---------------------------------------------------------
// BrokenKv acks writes at the primary *before* replication, buffers them in
// volatile memory, and replicates fire-and-forget on a timer. Any crash
// loses acked-but-unflushed writes (and a replica's whole store); any
// connectivity window swallows replication batches forever. The
// "no lost acked writes" invariant is therefore violated by almost every
// schedule — the interesting part is that the shrinker reduces whatever
// the generator found to a minimal schedule of at most a few actions.

struct KvReplicate {
  std::vector<std::pair<std::uint64_t, std::string>> entries;
};

class BrokenKvReplica : public net::Node {
 public:
  explicit BrokenKvReplica(net::Network& network) : net::Node(network) {
    set_component("kv");
    on<KvReplicate>([this](net::NodeId, const KvReplicate& batch) {
      for (const auto& [seq, value] : batch.entries) store_[seq] = value;
    });
  }
  [[nodiscard]] bool has(std::uint64_t seq) const {
    return store_.contains(seq);
  }

 protected:
  void on_crash() override { store_.clear(); }  // volatile, by design

 private:
  std::map<std::uint64_t, std::string> store_;
};

class BrokenKvPrimary : public net::Node {
 public:
  BrokenKvPrimary(net::Network& network,
                  std::vector<BrokenKvReplica*> replicas)
      : net::Node(network), replicas_(std::move(replicas)) {
    set_component("kv");
  }

  /// The bug: returns true ("acked") immediately; the write only exists in
  /// the volatile pending buffer until the next flush.
  bool write(std::uint64_t seq, std::string value) {
    if (!alive()) return false;
    store_[seq] = value;
    pending_.emplace_back(seq, std::move(value));
    return true;
  }

  [[nodiscard]] bool has(std::uint64_t seq) const {
    return store_.contains(seq);
  }

 protected:
  void on_start() override { arm(); }
  void on_recover() override { arm(); }
  void on_crash() override {
    store_.clear();
    pending_.clear();
  }

 private:
  void arm() {
    every(sim::millis(400), [this] {
      if (pending_.empty()) return;
      KvReplicate batch{std::move(pending_)};
      pending_.clear();
      for (BrokenKvReplica* replica : replicas_) {
        send(replica->id(), batch);  // fire and forget, no retransmit
      }
    });
  }

  std::vector<BrokenKvReplica*> replicas_;
  std::map<std::uint64_t, std::string> store_;
  std::vector<std::pair<std::uint64_t, std::string>> pending_;
};

ChaosProfile kv_profile() {
  ChaosProfile p;
  p.node_count = 3;
  p.warmup = sim::seconds(1);
  p.horizon = sim::seconds(8);
  p.cooldown = sim::seconds(3);
  p.min_actions = 1;
  p.max_actions = 4;
  p.min_duration = sim::millis(300);
  p.max_duration = sim::seconds(2);
  return p;
}

/// Run one schedule against a fresh BrokenKv deployment: primary on
/// logical node 0, replicas on 1..n-1, a writer acking every 300 ms.
ChaosRunReport run_broken_kv(const ChaosSchedule& schedule,
                             const ChaosProfile& profile) {
  ChaosRun chaos(schedule, profile, 0x5eed5eed5eed5eedULL);

  const std::size_t n = schedule.node_count != 0 ? schedule.node_count : 3;
  std::vector<std::unique_ptr<BrokenKvReplica>> replicas;
  for (std::size_t i = 1; i < n; ++i) {
    replicas.push_back(std::make_unique<BrokenKvReplica>(chaos.network));
  }
  std::vector<BrokenKvReplica*> replica_ptrs;
  for (auto& r : replicas) replica_ptrs.push_back(r.get());
  BrokenKvPrimary primary(chaos.network, replica_ptrs);

  // Logical node 0 is the primary, logical node i the i-th replica.
  net::LogicalNodes nodes{{&primary}};
  for (BrokenKvReplica* r : replica_ptrs) nodes.push_back({r});
  chaos.hooks = net::chaos_hooks_for(chaos.network, nodes);

  std::set<std::uint64_t> acked;
  chaos.registry.add_eventually("kv_no_lost_acked_writes",
                                [&]() -> std::optional<std::string> {
    for (const std::uint64_t seq : acked) {
      if (!primary.has(seq)) {
        return "acked write " + std::to_string(seq) + " lost at primary";
      }
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        if (!replicas[i]->has(seq)) {
          return "acked write " + std::to_string(seq) +
                 " missing on replica " + std::to_string(i + 1);
        }
      }
    }
    return std::nullopt;
  });

  std::uint64_t next_seq = 0;
  return chaos.run([&] {
    primary.start();
    for (auto& r : replicas) r->start();
    chaos.sim.schedule_every(sim::millis(300), [&] {
      if (chaos.sim.now() >= chaos.horizon()) return;
      const std::uint64_t seq = next_seq++;
      if (primary.write(seq, "v" + std::to_string(seq))) acked.insert(seq);
    });
  });
}

TEST(ChaosSeededBug, ExplorerFindsShrinksAndReplays) {
  const ChaosProfile profile = kv_profile();
  ChaosExplorer explorer(profile, [profile](const ChaosSchedule& s) {
    return run_broken_kv(s, profile);
  });

  const ExploreResult result = explorer.explore(/*base_seed=*/2026,
                                                /*iterations=*/16);
  ASSERT_TRUE(result.failure.has_value())
      << "a protocol that loses acked writes on any crash must fall to "
         "random fault schedules within a few seeds";
  const ChaosFailure& failure = *result.failure;
  EXPECT_EQ(failure.violations[0].invariant, "kv_no_lost_acked_writes");

  // Acceptance: the minimal repro is tiny and still fails.
  EXPECT_LE(failure.shrunk.schedule.actions.size(), 5u)
      << failure.summary();
  EXPECT_GE(failure.shrunk.schedule.actions.size(), 1u);
  EXPECT_FALSE(failure.shrunk.violations.empty());
  const ChaosRunReport rerun = run_broken_kv(failure.shrunk.schedule, profile);
  EXPECT_TRUE(rerun.failed()) << "shrunk schedule must still reproduce";

  // Seed replay: the printed seed regenerates and re-fails the original.
  const ChaosRunReport replayed = explorer.replay(failure.seed);
  EXPECT_TRUE(replayed.failed());
  EXPECT_EQ(replayed.violations[0].invariant, "kv_no_lost_acked_writes");

  // The summary line a failing test prints carries everything needed.
  const std::string summary = failure.summary();
  EXPECT_NE(summary.find("replay with ChaosExplorer::replay("),
            std::string::npos);
  EXPECT_NE(summary.find("kv_no_lost_acked_writes"), std::string::npos);
}

TEST(ChaosSeededBug, ReproArtifactRoundTrips) {
  const ChaosProfile profile = kv_profile();
  ChaosExplorer explorer(profile, [profile](const ChaosSchedule& s) {
    return run_broken_kv(s, profile);
  });
  const ExploreResult result = explorer.explore(2026, 16);
  ASSERT_TRUE(result.failure.has_value());

  // Export the enriched artifact (schedule + violations + trace tail)...
  sim::TraceLog tail_trace;
  tail_trace.log(sim::seconds(1), sim::TraceLevel::kInfo, "kv", 0, "flush");
  std::ostringstream artifact;
  obs::write_chaos_repro(artifact, result.failure->shrunk.schedule,
                         result.failure->shrunk.violations, &tail_trace);

  // ...and load it back as a plain schedule: unknown keys are skipped.
  std::string error;
  const auto reloaded = schedule_from_json(artifact.str(), &error);
  ASSERT_TRUE(reloaded.has_value()) << error << "\n" << artifact.str();
  EXPECT_EQ(*reloaded, result.failure->shrunk.schedule);
  EXPECT_TRUE(run_broken_kv(*reloaded, profile).failed());
}

// --- Smoke: the real stack holds its invariants -----------------------------

std::size_t smoke_iterations() {
  // CI default: ~3 full-stack runs keep the target under 30 s.
  return chaos_iterations(3);
}

TEST(ChaosSmoke, FullStackHoldsInvariantsUnderFixedSeeds) {
  const ChaosProfile profile = smoke_profile();
  ChaosExplorer explorer(profile, ChaosStack::runner(profile));
  const ExploreResult result =
      explorer.explore(/*base_seed=*/2026, smoke_iterations());
  EXPECT_FALSE(result.failure.has_value())
      << result.failure->summary();
  EXPECT_EQ(result.iterations, smoke_iterations());
}

TEST(ChaosSmoke, RunsAreTaggedIntoMetrics) {
  const ChaosProfile profile = smoke_profile();
  const ChaosSchedule schedule = generate_schedule(11, profile);
  ChaosStack stack(schedule, profile);
  stack.run();
  EXPECT_EQ(stack.metrics().gauge("riot_chaos_seed").value(),
            static_cast<double>(schedule.seed));
  std::uint64_t tagged = 0;
  for (const ChaosAction& a : schedule.actions) {
    tagged += stack.metrics().counter_value(
        "riot_chaos_actions_total",
        {{"kind", std::string(to_string(a.kind))}});
    break;  // one family lookup is enough to prove the tagging ran
  }
  if (!schedule.actions.empty()) {
    EXPECT_GE(tagged, 1u);
  }
}

}  // namespace
}  // namespace riot::chaos_test
