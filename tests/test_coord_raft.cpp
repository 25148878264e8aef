#include "coord/raft.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net_fixture.hpp"

namespace riot::coord {
namespace {

using riot::testing::NetFixture;

struct RaftTest : NetFixture {
  std::vector<std::unique_ptr<RaftStorage>> storages;
  std::vector<std::unique_ptr<RaftPeer>> peers;
  std::map<std::uint32_t, std::vector<Command>> applied;  // node -> commands

  void make_cluster(int n, RaftConfig cfg = {}) {
    for (int i = 0; i < n; ++i) {
      storages.push_back(std::make_unique<RaftStorage>());
      peers.push_back(
          std::make_unique<RaftPeer>(network, *storages.back(), cfg));
    }
    std::vector<net::NodeId> ids;
    for (auto& p : peers) ids.push_back(p->id());
    for (auto& p : peers) {
      p->set_peers(ids);
      p->on_apply([this, node = p->id().value](std::uint64_t,
                                               const Command& cmd) {
        applied[node].push_back(cmd);
      });
    }
    for (auto& p : peers) p->start();
  }

  RaftPeer* leader() {
    for (auto& p : peers) {
      if (p->alive() && p->is_leader()) return p.get();
    }
    return nullptr;
  }

  int leader_count() {
    int count = 0;
    std::uint64_t max_term = 0;
    for (auto& p : peers) {
      max_term = std::max(max_term, p->current_term());
    }
    for (auto& p : peers) {
      if (p->alive() && p->is_leader() && p->current_term() == max_term) {
        ++count;
      }
    }
    return count;
  }
};

TEST_F(RaftTest, ElectsExactlyOneLeader) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(leader_count(), 1);
}

TEST_F(RaftTest, SingleNodeClusterLeadsItself) {
  make_cluster(1);
  sim.run_until(sim::seconds(2));
  ASSERT_NE(leader(), nullptr);
  ASSERT_TRUE(leader()->propose("x").has_value());
  sim.run_until(sim::seconds(3));
  EXPECT_EQ(applied[peers[0]->id().value].size(), 1u);
}

TEST_F(RaftTest, FollowerRejectsProposals) {
  make_cluster(3);
  sim.run_until(sim::seconds(5));
  for (auto& p : peers) {
    if (!p->is_leader()) {
      EXPECT_FALSE(p->propose("nope").has_value());
    }
  }
}

TEST_F(RaftTest, ReplicatesToAllInOrder) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  for (int i = 0; i < 20; ++i) l->propose("cmd" + std::to_string(i));
  sim.run_until(sim::seconds(10));
  for (auto& p : peers) {
    const auto& log = applied[p->id().value];
    ASSERT_EQ(log.size(), 20u) << "peer " << p->id().value;
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(log[static_cast<size_t>(i)], "cmd" + std::to_string(i));
    }
  }
}

TEST_F(RaftTest, SurvivesLeaderCrash) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  RaftPeer* first = leader();
  ASSERT_NE(first, nullptr);
  first->propose("before");
  sim.run_until(sim::seconds(6));
  first->crash();
  sim.run_until(sim::seconds(12));
  RaftPeer* second = leader();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  ASSERT_TRUE(second->propose("after").has_value());
  sim.run_until(sim::seconds(15));
  for (auto& p : peers) {
    if (p.get() == first) continue;
    const auto& log = applied[p->id().value];
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "before");
    EXPECT_EQ(log[1], "after");
  }
}

TEST_F(RaftTest, MinorityPartitionCannotCommit) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  // Cut the leader plus one follower off from the other three.
  std::vector<net::NodeId> minority{l->id()};
  for (auto& p : peers) {
    if (p.get() != l && minority.size() < 2) {
      minority.push_back(p->id());
      break;
    }
  }
  network.partition({minority});
  const auto commit_before = l->commit_index();
  l->propose("lost");
  sim.run_until(sim::seconds(15));
  EXPECT_EQ(l->commit_index(), commit_before);
  // Majority side elected a new leader and can commit.
  RaftPeer* majority_leader = nullptr;
  for (auto& p : peers) {
    if (std::find(minority.begin(), minority.end(), p->id()) ==
            minority.end() &&
        p->is_leader()) {
      majority_leader = p.get();
    }
  }
  ASSERT_NE(majority_leader, nullptr);
  ASSERT_TRUE(majority_leader->propose("kept").has_value());
  sim.run_until(sim::seconds(20));
  EXPECT_GT(majority_leader->commit_index(), commit_before);
}

TEST_F(RaftTest, MinorityCannotElectFromDuplicatedVoteReplies) {
  // Regression: vote counting must track distinct granters. With every
  // message duplicated, a two-node partition delivers each granted
  // RequestVoteReply twice; counting the duplicate as a second voter
  // handed the minority candidate a 3-vote "majority" — a second leader,
  // split-brain commits, and state machines applying different commands
  // at the same index (found by the 1k-endpoint chaos soak).
  make_cluster(5);
  network.set_duplicate_probability(1.0);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  std::vector<net::NodeId> minority;
  for (auto& p : peers) {
    if (p.get() != l && minority.size() < 2) minority.push_back(p->id());
  }
  network.partition({minority});
  sim.run_until(sim::seconds(20));
  // Plenty of election timeouts later, the cut-off pair still has one real
  // peer vote each — never a quorum, never a leader.
  for (auto& p : peers) {
    if (std::find(minority.begin(), minority.end(), p->id()) !=
        minority.end()) {
      EXPECT_FALSE(p->is_leader())
          << "minority node " << p->id().value
          << " won an election from duplicated vote replies";
    }
  }
}

TEST_F(RaftTest, HealedPartitionConverges) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  network.partition({{l->id()}});
  sim.run_until(sim::seconds(12));
  network.heal_partition();
  sim.run_until(sim::seconds(20));
  RaftPeer* final_leader = leader();
  ASSERT_NE(final_leader, nullptr);
  ASSERT_TRUE(final_leader->propose("converged").has_value());
  sim.run_until(sim::seconds(25));
  for (auto& p : peers) {
    ASSERT_FALSE(applied[p->id().value].empty())
        << "peer " << p->id().value;
    EXPECT_EQ(applied[p->id().value].back(), "converged");
  }
}

TEST_F(RaftTest, CrashRecoveryKeepsPersistentLog) {
  make_cluster(3);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  for (int i = 0; i < 5; ++i) l->propose("p" + std::to_string(i));
  sim.run_until(sim::seconds(8));
  // Crash a follower; its storage_ survives.
  RaftPeer* follower = nullptr;
  for (auto& p : peers) {
    if (!p->is_leader()) follower = p.get();
  }
  ASSERT_NE(follower, nullptr);
  const auto log_size_at_crash =
      storages[0]->log.size() + storages[1]->log.size() +
      storages[2]->log.size();
  EXPECT_GT(log_size_at_crash, 0u);
  follower->crash();
  sim.run_until(sim::seconds(10));
  leader()->propose("while-down");
  sim.run_until(sim::seconds(12));
  follower->recover();
  sim.run_until(sim::seconds(20));
  // Recovered follower re-applies the whole log, including entries
  // committed while it was down.
  const auto& log = applied[follower->id().value];
  // The follower applied 5 before crash + full log replays are not done
  // (state machine volatile): after recovery it applies from scratch as
  // the leader advances commit. We require at least the post-crash entry.
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), "while-down");
}

TEST_F(RaftTest, LogsPrefixConsistent) {
  make_cluster(5);
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  for (int i = 0; i < 30; ++i) l->propose(std::to_string(i));
  sim.run_until(sim::seconds(15));
  // State-machine safety: every pair of applied sequences must be
  // prefix-consistent.
  for (auto& a : peers) {
    for (auto& b : peers) {
      const auto& la = applied[a->id().value];
      const auto& lb = applied[b->id().value];
      const std::size_t n = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(la[i], lb[i]);
      }
    }
  }
}

TEST_F(RaftTest, LeaderChangeCallbackFires) {
  make_cluster(3);
  int changes = 0;
  for (auto& p : peers) {
    p->on_leader_change([&](net::NodeId) { ++changes; });
  }
  sim.run_until(sim::seconds(5));
  EXPECT_GE(changes, 3);  // every peer learns the leader at least once
}

TEST_F(RaftTest, IsolatedLeaderRejoinsWithStaleTerm) {
  make_cluster(5);
  // At-least-once links: Raft's RPCs must shrug off duplicated messages
  // while the leadership change plays out.
  network.set_duplicate_probability(0.2);
  sim.run_until(sim::seconds(5));
  RaftPeer* old_leader = leader();
  ASSERT_NE(old_leader, nullptr);
  ASSERT_TRUE(old_leader->propose("committed-before").has_value());
  sim.run_until(sim::seconds(6));
  const std::uint64_t stale_term = old_leader->current_term();

  network.isolate(old_leader->id());
  sim.run_until(sim::seconds(12));
  // The isolated leader keeps believing in its stale term; the majority
  // moved past it.
  EXPECT_TRUE(old_leader->is_leader());
  EXPECT_EQ(old_leader->current_term(), stale_term);
  RaftPeer* new_leader = nullptr;
  for (auto& p : peers) {
    if (p.get() != old_leader && p->is_leader()) new_leader = p.get();
  }
  ASSERT_NE(new_leader, nullptr);
  EXPECT_GT(new_leader->current_term(), stale_term);
  ASSERT_TRUE(new_leader->propose("while-isolated").has_value());
  sim.run_until(sim::seconds(14));

  network.unisolate(old_leader->id());
  sim.run_until(sim::seconds(20));
  // Back in the majority's world the stale leader steps down, adopts the
  // higher term, and catches up on everything it missed.
  EXPECT_FALSE(old_leader->is_leader());
  EXPECT_GE(old_leader->current_term(), new_leader->current_term());
  const auto& log = applied[old_leader->id().value];
  ASSERT_FALSE(log.empty());
  EXPECT_NE(std::find(log.begin(), log.end(), "while-isolated"), log.end());
  EXPECT_EQ(leader_count(), 1);
}

class RaftSizeSweep : public RaftTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(RaftSizeSweep, CommitsAcrossClusterSizes) {
  make_cluster(GetParam());
  sim.run_until(sim::seconds(5));
  RaftPeer* l = leader();
  ASSERT_NE(l, nullptr);
  l->propose("hello");
  sim.run_until(sim::seconds(10));
  int applied_count = 0;
  for (auto& p : peers) {
    if (!applied[p->id().value].empty()) ++applied_count;
  }
  EXPECT_EQ(applied_count, GetParam());
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, RaftSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 7));

}  // namespace
}  // namespace riot::coord
