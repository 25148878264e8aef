#include "membership/swim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net_fixture.hpp"

namespace riot::membership {

// The piggyback queue before the counting sort: a deque reordered by
// std::stable_sort whenever it holds more than `max` updates. Kept as the
// reference PiggybackQueue is checked against.
namespace reference {

class PiggybackQueue {
 public:
  void push(const MemberUpdate& update, int budget) {
    std::erase_if(queue_, [&](const Entry& e) {
      return e.update.member == update.member;
    });
    queue_.push_back(Entry{update, budget});
  }

  std::vector<MemberUpdate> take(std::size_t max) {
    if (queue_.size() > max) {
      std::stable_sort(queue_.begin(), queue_.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.remaining > b.remaining;
                       });
    }
    std::vector<MemberUpdate> out;
    for (auto& e : queue_) {
      if (out.size() >= max) break;
      out.push_back(e.update);
      --e.remaining;
    }
    std::erase_if(queue_, [](const Entry& e) { return e.remaining <= 0; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }

 private:
  struct Entry {
    MemberUpdate update;
    int remaining;
  };
  std::deque<Entry> queue_;
};

}  // namespace reference

namespace {

using riot::testing::NetFixture;

struct SwimTest : NetFixture {
  std::vector<std::unique_ptr<SwimMember>> members;

  void make_group(int n) {
    for (int i = 0; i < n; ++i) {
      members.push_back(std::make_unique<SwimMember>(network));
    }
    for (auto& m : members) {
      for (auto& peer : members) {
        if (m != peer) m->add_peer(peer->id());
      }
    }
    for (auto& m : members) m->start();
  }

  int count_believing_dead(net::NodeId target) {
    int count = 0;
    for (auto& m : members) {
      if (m->id() != target &&
          m->state_of(target) == MemberState::kDead) {
        ++count;
      }
    }
    return count;
  }
};

TEST_F(SwimTest, NoFalsePositivesInHealthyGroup) {
  make_group(8);
  sim.run_until(sim::seconds(30));
  for (auto& m : members) {
    EXPECT_EQ(m->alive_peers().size(), 7u) << "member " << m->id().value;
  }
  EXPECT_EQ(trace.count("swim", "dead"), 0u);
}

TEST_F(SwimTest, DetectsCrashedMember) {
  make_group(6);
  sim.run_until(sim::seconds(5));
  members[2]->crash();
  sim.run_until(sim::seconds(25));
  EXPECT_EQ(count_believing_dead(members[2]->id()), 5);
}

TEST_F(SwimTest, SuspectPrecedesDead) {
  make_group(5);
  sim.run_until(sim::seconds(5));
  members[0]->crash();
  sim.run_until(sim::seconds(25));
  const auto* suspect = trace.first_after("swim", "suspect", sim::seconds(5));
  const auto* dead = trace.first_after("swim", "dead", sim::seconds(5));
  ASSERT_NE(suspect, nullptr);
  ASSERT_NE(dead, nullptr);
  EXPECT_LT(suspect->at, dead->at);
}

TEST_F(SwimTest, DetectionTimeBounded) {
  make_group(8);
  sim.run_until(sim::seconds(5));
  members[1]->crash();
  sim.run_until(sim::seconds(60));
  const auto* dead = trace.first_after("swim", "dead", sim::seconds(5));
  ASSERT_NE(dead, nullptr);
  // First dead declaration within a handful of protocol periods + suspect
  // timeout.
  EXPECT_LT(dead->at - sim::seconds(5),
            sim::seconds(20));
}

TEST_F(SwimTest, RefutationClearsFalseSuspicion) {
  make_group(5);
  sim.run_until(sim::seconds(5));
  // Isolate member 0 briefly: peers suspect it, then it comes back and
  // must refute before the suspect timeout expires.
  network.isolate(members[0]->id());
  sim.run_until(sim::seconds(6));  // shorter than suspect_timeout (3s) path
  network.unisolate(members[0]->id());
  sim.run_until(sim::seconds(40));
  // Member 0 must be alive in everyone's view again.
  for (auto& m : members) {
    EXPECT_NE(m->state_of(members[0]->id()), MemberState::kDead)
        << "member " << m->id().value;
  }
}

TEST_F(SwimTest, RecoveredMemberRejoins) {
  make_group(5);
  sim.run_until(sim::seconds(5));
  members[3]->crash();
  sim.run_until(sim::seconds(30));
  ASSERT_GT(count_believing_dead(members[3]->id()), 0);
  members[3]->recover();
  sim.run_until(sim::seconds(60));
  int alive_count = 0;
  for (auto& m : members) {
    if (m->id() != members[3]->id() &&
        m->state_of(members[3]->id()) == MemberState::kAlive) {
      ++alive_count;
    }
  }
  EXPECT_EQ(alive_count, 4);
}

TEST_F(SwimTest, IncarnationIncreasesOnRefute) {
  make_group(4);
  const auto initial = members[0]->incarnation();
  sim.run_until(sim::seconds(3));
  network.isolate(members[0]->id());
  sim.run_until(sim::seconds(4));
  network.unisolate(members[0]->id());
  sim.run_until(sim::seconds(20));
  EXPECT_GT(members[0]->incarnation(), initial);
}

TEST_F(SwimTest, SymmetricPartitionHealsAfterMutualDeath) {
  // A partition that outlives the suspect timeout makes both sides declare
  // each other dead. Classic SWIM is then stuck: dead members are never
  // pinged, so the verdict never reaches its subject and cannot be
  // refuted. The periodic dead-probe must re-establish contact after the
  // partition heals.
  make_group(5);
  sim.run_until(sim::seconds(5));
  network.partition({{members[3]->id(), members[4]->id()}});
  sim.run_until(sim::seconds(15));  // > suspect_timeout: verdicts mature
  ASSERT_GT(count_believing_dead(members[4]->id()), 0);
  network.heal_partition();
  sim.run_until(sim::seconds(45));
  for (auto& m : members) {
    for (auto& peer : members) {
      if (m == peer) continue;
      EXPECT_EQ(m->state_of(peer->id()), MemberState::kAlive)
          << "member " << m->id().value << " view of " << peer->id().value;
    }
  }
}

TEST_F(SwimTest, DeadProbeBatchCoversTheDeadSetInFiveRounds) {
  // Every 3 s a member re-probes max(3, ceil(|dead| / 5)) dead members,
  // round-robin over the dead set in id order: 20 dead take 4 per round,
  // and five consecutive rounds name each of them.
  make_group(24);
  sim.run_until(sim::seconds(5));
  std::set<std::string> crashed;
  for (std::size_t i = 4; i < members.size(); ++i) {
    members[i]->crash();
    crashed.insert(to_string(members[i]->id()));
  }
  const SwimMember& survivor = *members[0];
  const std::vector<net::NodeId> others{members[1]->id(), members[2]->id(),
                                        members[3]->id()};
  while (survivor.alive_peers() != others) {
    ASSERT_LT(sim.now(), sim::seconds(120)) << "the crashes never all mature";
    sim.run_for(sim::millis(100));
  }
  const sim::SimTime from = sim.now();
  sim.run_for(sim::seconds(18));  // six dead-probe intervals
  std::map<sim::SimTime, std::vector<std::string>> rounds;
  for (const auto& event : trace.find("swim", "dead_probe")) {
    if (event.node == survivor.id().value && event.at > from) {
      rounds[event.at].push_back(event.detail);
    }
  }
  ASSERT_GE(rounds.size(), 5u);
  std::set<std::string> named;
  auto round = rounds.begin();
  for (int r = 0; r < 5; ++r, ++round) {
    EXPECT_EQ(round->second.size(), 4u) << sim::to_seconds(round->first);
    named.insert(round->second.begin(), round->second.end());
  }
  EXPECT_EQ(named, crashed);
}

TEST_F(SwimTest, PairOfMembersWorks) {
  make_group(2);
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(members[0]->alive_peers().size(), 1u);
  members[1]->crash();
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(members[0]->state_of(members[1]->id()), MemberState::kDead);
}

TEST_F(SwimTest, MessageLoadPerMemberIsBounded) {
  make_group(10);
  sim.run_until(sim::seconds(10));
  const double msgs_per_member_second =
      static_cast<double>(network.messages_sent()) / 10.0 / 10.0;
  // Each period: 1 ping + 1 ack (+ occasional indirect) — single digits.
  EXPECT_LT(msgs_per_member_second, 10.0);
}

TEST(PiggybackQueue, TakesInStableSortOrder) {
  // Random pushes (re-pushes supersede) and takes with `max` both above
  // and below the queue length; every take must return the reference's
  // updates in the reference's order.
  sim::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    PiggybackQueue queue;
    reference::PiggybackQueue expected;
    const auto pool = static_cast<std::uint32_t>(1 + rng.below(60));
    for (int op = 0; op < 400; ++op) {
      if (rng.chance(0.6)) {
        const MemberUpdate update{
            net::NodeId{static_cast<std::uint32_t>(rng.below(pool))},
            static_cast<MemberState>(rng.below(3)),
            static_cast<std::uint32_t>(rng.below(5))};
        const int budget = static_cast<int>(1 + rng.below(24));
        queue.push(update, budget);
        expected.push(update, budget);
        continue;
      }
      const std::size_t max = rng.below(20);
      const std::vector<MemberUpdate> got = queue.take(max);
      const std::vector<MemberUpdate> want = expected.take(max);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " op " << op;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].member, want[i].member) << "trial " << trial;
        EXPECT_EQ(got[i].state, want[i].state) << "trial " << trial;
        EXPECT_EQ(got[i].incarnation, want[i].incarnation)
            << "trial " << trial;
      }
      ASSERT_EQ(queue.size(), expected.size());
    }
  }
}

// Detection works across group sizes (property sweep).
class SwimSizeSweep : public SwimTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(SwimSizeSweep, AllSurvivorsConvergeOnDeath) {
  const int n = GetParam();
  make_group(n);
  sim.run_until(sim::seconds(5));
  members[0]->crash();
  sim.run_until(sim::seconds(60));
  EXPECT_EQ(count_believing_dead(members[0]->id()), n - 1);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SwimSizeSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace riot::membership
