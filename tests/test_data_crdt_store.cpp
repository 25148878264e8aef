#include "data/crdt_store.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/chaos_checks.hpp"
#include "net_fixture.hpp"

namespace riot::data {
namespace {

using riot::testing::NetFixture;

struct CrdtStoreTest : NetFixture {
  std::vector<std::unique_ptr<CrdtStore>> stores;

  void make_replicas(int n, CrdtStoreConfig cfg = {}) {
    for (int i = 0; i < n; ++i) {
      stores.push_back(std::make_unique<CrdtStore>(network, cfg));
    }
    for (auto& s : stores) {
      std::vector<net::NodeId> peers;
      for (auto& other : stores) {
        if (other != s) peers.push_back(other->id());
      }
      s->set_replicas(std::move(peers));
    }
    for (auto& s : stores) s->start();
  }
};

TEST_F(CrdtStoreTest, CounterConvergesAcrossReplicas) {
  make_replicas(4);
  stores[0]->gcounter("hits").increment(stores[0]->replica_id(), 3);
  stores[1]->gcounter("hits").increment(stores[1]->replica_id(), 4);
  sim.run_until(sim::seconds(10));
  for (auto& s : stores) {
    EXPECT_EQ(s->gcounter("hits").value(), 7u)
        << "replica " << s->replica_id();
  }
}

TEST_F(CrdtStoreTest, OrSetConvergesWithRemoves) {
  make_replicas(3);
  stores[0]->orset("devices").add("a", stores[0]->replica_id());
  stores[1]->orset("devices").add("b", stores[1]->replica_id());
  sim.run_until(sim::seconds(10));
  stores[2]->orset("devices").remove("a");
  sim.run_until(sim::seconds(20));
  for (auto& s : stores) {
    EXPECT_FALSE(s->orset("devices").contains("a"));
    EXPECT_TRUE(s->orset("devices").contains("b"));
  }
}

TEST_F(CrdtStoreTest, WritableDuringPartitionConvergesAfterHeal) {
  make_replicas(4);
  sim.run_until(sim::seconds(2));
  network.partition({{stores[0]->id(), stores[1]->id()},
                     {stores[2]->id(), stores[3]->id()}});
  // Both sides keep accepting writes — the availability CRDTs buy.
  stores[0]->pncounter("level").increment(stores[0]->replica_id(), 10);
  stores[3]->pncounter("level").decrement(stores[3]->replica_id(), 4);
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(stores[1]->pncounter("level").value(), 10);
  EXPECT_EQ(stores[2]->pncounter("level").value(), -4);
  network.heal_partition();
  sim.run_until(sim::seconds(25));
  for (auto& s : stores) {
    EXPECT_EQ(s->pncounter("level").value(), 6);
  }
}

TEST_F(CrdtStoreTest, NoUpdateLostAcrossPartition) {
  make_replicas(6);
  network.partition({{stores[0]->id(), stores[1]->id(), stores[2]->id()},
                     {stores[3]->id(), stores[4]->id(), stores[5]->id()}});
  for (int i = 0; i < 6; ++i) {
    stores[static_cast<size_t>(i)]->orset("all").add(
        "item" + std::to_string(i),
        stores[static_cast<size_t>(i)]->replica_id());
  }
  sim.run_until(sim::seconds(10));
  network.heal_partition();
  sim.run_until(sim::seconds(30));
  for (auto& s : stores) {
    EXPECT_EQ(s->orset("all").size(), 6u) << "replica " << s->replica_id();
  }
}

TEST_F(CrdtStoreTest, LwwRegisterSyncs) {
  make_replicas(3);
  stores[0]->lww("config").set("v1", stores[0]->lww_now(),
                               stores[0]->replica_id());
  sim.run_until(sim::seconds(5));
  stores[2]->lww("config").set("v2", stores[2]->lww_now(),
                               stores[2]->replica_id());
  sim.run_until(sim::seconds(15));
  for (auto& s : stores) {
    EXPECT_EQ(s->lww("config").value(), "v2");
  }
}

TEST_F(CrdtStoreTest, ConvergesUnderDuplicationStorm) {
  // Anti-entropy syncs are full-state lattice joins, so delivering every
  // sync message twice must change nothing: counters don't double-count,
  // removes don't resurrect.
  make_replicas(4);
  network.set_duplicate_probability(0.5);
  stores[0]->gcounter("hits").increment(stores[0]->replica_id(), 3);
  stores[1]->gcounter("hits").increment(stores[1]->replica_id(), 4);
  stores[2]->orset("devices").add("a", stores[2]->replica_id());
  sim.run_until(sim::seconds(6));
  stores[3]->orset("devices").remove("a");
  stores[3]->orset("devices").add("b", stores[3]->replica_id());
  sim.run_until(sim::seconds(20));
  for (auto& s : stores) {
    EXPECT_EQ(s->gcounter("hits").value(), 7u)
        << "duplicated syncs must not inflate replica "
        << s->replica_id();
    EXPECT_FALSE(s->orset("devices").contains("a"));
    EXPECT_TRUE(s->orset("devices").contains("b"));
  }
  const std::uint64_t digest = chaos::store_digest(*stores[0]);
  for (auto& s : stores) {
    EXPECT_TRUE(stores_converged(*stores[0], *s));
    EXPECT_EQ(chaos::store_digest(*s), digest)
        << "observable-state digests must agree at quiescence";
  }
}

TEST_F(CrdtStoreTest, ConvergesUnderClockSkew) {
  // LWW order is timestamp order, not wall order: a replica whose clock
  // runs 2 s ahead wins over a later (in simulation time) write from a
  // replica running 1 s behind — on every replica, identically.
  make_replicas(3);
  network.set_clock_skew(stores[0]->id(), sim::seconds(2));
  network.set_clock_skew(stores[1]->id(), -sim::seconds(1));
  stores[0]->lww("mode").set("from_fast_clock", stores[0]->lww_now(),
                             stores[0]->replica_id());
  sim.run_until(sim::seconds(1));
  stores[1]->lww("mode").set("from_slow_clock", stores[1]->lww_now(),
                             stores[1]->replica_id());
  stores[1]->gcounter("ticks").increment(stores[1]->replica_id(), 5);
  sim.run_until(sim::seconds(12));
  for (auto& s : stores) {
    EXPECT_EQ(s->lww("mode").value(), "from_fast_clock")
        << "replica " << s->replica_id();
    EXPECT_EQ(s->gcounter("ticks").value(), 5u);
  }
  const std::uint64_t digest = chaos::store_digest(*stores[0]);
  for (auto& s : stores) {
    EXPECT_EQ(chaos::store_digest(*s), digest);
  }
}

TEST_F(CrdtStoreTest, ConvergesUnderDuplicationPlusSkewAndCrash) {
  // The combined storm the chaos soak throws at the data layer, in unit
  // form: duplicated syncs, skewed clocks on both writers, and a replica
  // that misses updates while crashed and rehydrates after recovery.
  make_replicas(4);
  network.set_duplicate_probability(0.4);
  network.set_clock_skew(stores[1]->id(), sim::seconds(1));
  network.set_clock_skew(stores[2]->id(), -sim::seconds(1));
  stores[1]->lww("cfg").set("a", stores[1]->lww_now(),
                            stores[1]->replica_id());
  sim.run_until(sim::seconds(3));
  stores[3]->crash();
  stores[2]->lww("cfg").set("b", stores[2]->lww_now(),
                            stores[2]->replica_id());
  stores[0]->gcounter("n").increment(stores[0]->replica_id(), 2);
  sim.run_until(sim::seconds(6));
  stores[3]->recover();
  sim.run_until(sim::seconds(20));
  // t=0 on a +1s clock stamps 1s; t=3s on a -1s clock stamps 2s: the
  // later write still wins here, but only because 3s of simulated time
  // outran the 2s skew spread — the point is all replicas agree.
  const std::uint64_t digest = chaos::store_digest(*stores[0]);
  for (auto& s : stores) {
    EXPECT_EQ(s->lww("cfg").value(), "b") << "replica " << s->replica_id();
    EXPECT_EQ(s->gcounter("n").value(), 2u);
    EXPECT_TRUE(stores_converged(*stores[0], *s));
    EXPECT_EQ(chaos::store_digest(*s), digest);
  }
}

TEST_F(CrdtStoreTest, RecoveredReplicaRehydrates) {
  make_replicas(3);
  stores[0]->gcounter("c").increment(stores[0]->replica_id(), 5);
  sim.run_until(sim::seconds(5));
  stores[2]->crash();
  stores[0]->gcounter("c").increment(stores[0]->replica_id(), 2);
  sim.run_until(sim::seconds(8));
  stores[2]->recover();
  sim.run_until(sim::seconds(20));
  EXPECT_EQ(stores[2]->gcounter("c").value(), 7u);
}

TEST_F(CrdtStoreTest, CountsWrittenBeforeRehydrationSurviveARestart) {
  // A diskless restart forgets the replica's own count. Increments made
  // before the first rehydrating sync must add to the pre-crash count, not
  // lose to it under the per-replica maximum.
  make_replicas(3);
  stores[0]->gcounter("c").increment(stores[0]->replica_id(), 5);
  sim.run_until(sim::seconds(5));
  const ReplicaId first_life = stores[0]->replica_id();
  stores[0]->crash();
  sim.run_until(sim::seconds(6));
  stores[0]->recover();
  EXPECT_NE(stores[0]->replica_id(), first_life);
  EXPECT_EQ(stores[0]->replica_id() & 0xffffffffu, stores[0]->id().value);
  stores[0]->gcounter("c").increment(stores[0]->replica_id(), 2);
  sim.run_until(sim::seconds(20));
  for (auto& s : stores) {
    EXPECT_EQ(s->gcounter("c").value(), 7u) << "replica " << s->replica_id();
  }
}

TEST_F(CrdtStoreTest, ReAddAfterARestartWinsOverAnEarlierRemove) {
  // Every replica has seen x added and then removed. The restarted writer
  // adds x again before rehydrating; that add was never observed by the
  // remove, so it must win, not reuse a tag the remove already covers.
  make_replicas(3);
  stores[0]->orset("s").add("x", stores[0]->replica_id());
  sim.run_until(sim::seconds(5));
  stores[1]->orset("s").remove("x");
  sim.run_until(sim::seconds(10));
  ASSERT_FALSE(stores[0]->orset("s").contains("x"));
  stores[0]->crash();
  sim.run_until(sim::seconds(11));
  stores[0]->recover();
  stores[0]->orset("s").add("x", stores[0]->replica_id());
  sim.run_until(sim::seconds(25));
  for (auto& s : stores) {
    EXPECT_TRUE(s->orset("s").contains("x")) << "replica " << s->replica_id();
  }
}

TEST_F(CrdtStoreTest, TypeMismatchThrowsLocally) {
  make_replicas(1);
  stores[0]->gcounter("k");
  EXPECT_THROW(stores[0]->orset("k"), std::logic_error);
}

TEST_F(CrdtStoreTest, TypeMismatchAcrossReplicasKeepsLocal) {
  make_replicas(2);
  stores[0]->gcounter("k").increment(stores[0]->replica_id());
  stores[1]->orset("k").add("x", stores[1]->replica_id());
  sim.run_until(sim::seconds(10));
  // Neither side corrupts its object; both keep their own type.
  EXPECT_EQ(stores[0]->gcounter("k").value(), 1u);
  EXPECT_TRUE(stores[1]->orset("k").contains("x"));
}

TEST_F(CrdtStoreTest, MergedCallbackFires) {
  make_replicas(2);
  int merges = 0;
  stores[1]->on_merged([&](const std::string& key) {
    if (key == "watched") ++merges;
  });
  stores[0]->gcounter("watched").increment(stores[0]->replica_id());
  sim.run_until(sim::seconds(5));
  EXPECT_GE(merges, 1);
}

TEST_F(CrdtStoreTest, MvRegisterExposesConflict) {
  make_replicas(2);
  network.partition({{stores[0]->id()}, {stores[1]->id()}});
  stores[0]->mvreg("mode").set("eco", stores[0]->replica_id());
  stores[1]->mvreg("mode").set("boost", stores[1]->replica_id());
  sim.run_until(sim::seconds(5));
  network.heal_partition();
  sim.run_until(sim::seconds(15));
  // Unlike LWW, both concurrent writes survive for the application to
  // resolve.
  EXPECT_EQ(stores[0]->mvreg("mode").sibling_count(), 2u);
  EXPECT_EQ(stores[1]->mvreg("mode").sibling_count(), 2u);
}

}  // namespace
}  // namespace riot::data
