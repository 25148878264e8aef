#include "coord/gossip.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net_fixture.hpp"

namespace riot::coord {
namespace {

using riot::testing::NetFixture;

struct GossipTest : NetFixture {
  std::vector<std::unique_ptr<GossipNode>> nodes;

  void make_mesh(int n, GossipConfig cfg = {}) {
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<GossipNode>(network, cfg));
    }
    std::vector<net::NodeId> ids;
    for (auto& node : nodes) ids.push_back(node->id());
    for (auto& node : nodes) node->set_peers(ids);
    for (auto& node : nodes) node->start();
  }

  int count_with(const std::string& key, const std::string& value) {
    int count = 0;
    for (auto& node : nodes) {
      if (node->get(key) == value) ++count;
    }
    return count;
  }
};

TEST_F(GossipTest, SingleWriteReachesEveryone) {
  make_mesh(10);
  nodes[0]->put("config", "v1");
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(count_with("config", "v1"), 10);
}

TEST_F(GossipTest, NewerVersionWins) {
  make_mesh(6);
  nodes[0]->put("k", "old");
  sim.run_until(sim::seconds(10));
  ASSERT_EQ(count_with("k", "old"), 6);
  nodes[0]->put("k", "new");
  sim.run_until(sim::seconds(20));
  EXPECT_EQ(count_with("k", "new"), 6);
  EXPECT_EQ(count_with("k", "old"), 0);
}

TEST_F(GossipTest, ConcurrentWritesConvergeDeterministically) {
  make_mesh(6);
  // Both writers bump their key to version 1 concurrently; the higher
  // origin id must win everywhere.
  nodes[1]->put("k", "from1");
  nodes[4]->put("k", "from4");
  sim.run_until(sim::seconds(15));
  const std::string expected =
      nodes[4]->id().value > nodes[1]->id().value ? "from4" : "from1";
  EXPECT_EQ(count_with("k", expected), 6);
}

TEST_F(GossipTest, UpdateCallbackFires) {
  make_mesh(3);
  int updates = 0;
  nodes[2]->on_update([&](const std::string& key, const std::string&) {
    if (key == "x") ++updates;
  });
  nodes[0]->put("x", "1");
  sim.run_until(sim::seconds(5));
  EXPECT_GE(updates, 1);
}

TEST_F(GossipTest, CrashedNodeRehydratesAfterRecovery) {
  make_mesh(5);
  nodes[0]->put("a", "1");
  nodes[1]->put("b", "2");
  sim.run_until(sim::seconds(10));
  nodes[4]->crash();
  nodes[0]->put("c", "3");
  sim.run_until(sim::seconds(15));
  nodes[4]->recover();
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(nodes[4]->get("a"), "1");
  EXPECT_EQ(nodes[4]->get("b"), "2");
  EXPECT_EQ(nodes[4]->get("c"), "3");
}

TEST_F(GossipTest, WriteAfterRecoveryBeatsPreCrashVersions) {
  make_mesh(5);
  for (const char* value : {"v1", "v2", "v3"}) nodes[0]->put("k", value);
  sim.run_until(sim::seconds(10));
  ASSERT_EQ(count_with("k", "v3"), 5);
  // The crash wipes the writer's store, so its next put restarts the key
  // at version 1; only the higher incarnation lets it beat version 3.
  nodes[0]->crash();
  nodes[0]->recover();
  nodes[0]->put("k", "after");
  sim.run_until(sim::seconds(25));
  EXPECT_EQ(count_with("k", "after"), 5);
}

TEST_F(GossipTest, PartitionedGroupsConvergeAfterHeal) {
  make_mesh(6);
  std::vector<net::NodeId> left{nodes[0]->id(), nodes[1]->id(),
                                nodes[2]->id()};
  std::vector<net::NodeId> right{nodes[3]->id(), nodes[4]->id(),
                                 nodes[5]->id()};
  network.partition({left, right});
  nodes[0]->put("left-key", "L");
  nodes[3]->put("right-key", "R");
  sim.run_until(sim::seconds(10));
  // Within partitions only.
  EXPECT_EQ(count_with("left-key", "L"), 3);
  EXPECT_EQ(count_with("right-key", "R"), 3);
  network.heal_partition();
  sim.run_until(sim::seconds(25));
  EXPECT_EQ(count_with("left-key", "L"), 6);
  EXPECT_EQ(count_with("right-key", "R"), 6);
}

TEST_F(GossipTest, ManyKeysConverge) {
  make_mesh(8);
  for (int i = 0; i < 20; ++i) {
    nodes[static_cast<size_t>(i) % nodes.size()]->put(
        "key" + std::to_string(i), std::to_string(i));
  }
  sim.run_until(sim::seconds(20));
  for (auto& node : nodes) {
    EXPECT_EQ(node->store_size(), 20u) << "node " << node->id().value;
  }
}

class GossipFanoutSweep : public GossipTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(GossipFanoutSweep, ConvergesAtAnyFanout) {
  GossipConfig cfg;
  cfg.fanout = GetParam();
  make_mesh(12, cfg);
  nodes[0]->put("k", "v");
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(count_with("k", "v"), 12);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, GossipFanoutSweep,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace riot::coord
