#include "coord/gossip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net_fixture.hpp"

namespace riot::coord {

// The digest receipt before stores were kept sorted: one store scan per
// digest entry, then a scan of the matched entries per store entry. Any
// store order, any digest order. Kept as the reference the merge is
// checked against.
namespace reference {

using Store = std::vector<std::pair<std::string, VersionedValue>>;

struct Reconciled {
  Store ahead;
  std::vector<std::string> want;
};

Reconciled reconcile(const Store& store,
                     const std::vector<GossipNode::DigestEntry>& digest) {
  Reconciled out;
  std::vector<const VersionedValue*> matched;
  for (const auto& entry : digest) {
    const VersionedValue* found = nullptr;
    for (const auto& [k, v] : store) {
      if (k == entry.key) found = &v;
    }
    if (found == nullptr) {
      out.want.push_back(entry.key);
      continue;
    }
    matched.push_back(found);
    if (std::tie(entry.epoch, entry.version, entry.origin) >
        std::tie(found->epoch, found->version, found->origin)) {
      out.want.push_back(entry.key);
    } else if (found->epoch != entry.epoch ||
               found->version != entry.version ||
               found->origin != entry.origin) {
      out.ahead.emplace_back(entry.key, *found);
    }
  }
  for (const auto& [key, value] : store) {
    if (std::find(matched.begin(), matched.end(), &value) == matched.end()) {
      out.ahead.emplace_back(key, value);
    }
  }
  return out;
}

}  // namespace reference

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

TEST_F(GossipTest, SetPeersKeepsFirstOccurrencesAndDropsSelf) {
  GossipNode node(network);
  const net::NodeId self = node.id();
  const net::NodeId a{self.value + 7}, b{self.value + 3}, c{self.value + 11};
  node.set_peers({b, self, a, b, c, a, self, b});
  EXPECT_EQ(node.peers(), (std::vector<net::NodeId>{b, a, c}));
  node.set_peers({});
  EXPECT_TRUE(node.peers().empty());
  node.set_peers({self, c});
  EXPECT_EQ(node.peers(), (std::vector<net::NodeId>{c}));
}

/// Sends digests and store contents to a GossipNode and records what the
/// node answers.
struct GossipProbe : net::Node {
  explicit GossipProbe(net::Network& network) : net::Node(network) {
    on<GossipNode::Delta>([this](net::NodeId, const GossipNode::Delta& d) {
      deltas.push_back(d);
    });
    on<GossipNode::DigestRequest>(
        [this](net::NodeId, const GossipNode::DigestRequest& r) {
          requests.push_back(r);
        });
  }
  std::vector<GossipNode::Delta> deltas;
  std::vector<GossipNode::DigestRequest> requests;
};

TEST_F(GossipTest, DigestMergeMatchesDoubleScanReference) {
  // Random stores against random digests over a 24-key pool: keys only
  // one side holds, keys both hold at equal, newer and older versions, and
  // empty digests. The node's replies must carry the reference's entries.
  GossipProbe probe(network);
  sim::Rng rng(2323);
  const auto stamp = [&rng](VersionedValue& v) {
    v.epoch = static_cast<std::uint32_t>(rng.below(2));
    v.version = 1 + rng.below(3);
    v.origin = static_cast<std::uint32_t>(1 + rng.below(3));
  };
  for (int trial = 0; trial < 200; ++trial) {
    // A fresh node per trial; nodes stay alive (registered endpoints) until
    // the fixture ends.
    nodes.push_back(std::make_unique<GossipNode>(network));
    GossipNode& node = *nodes.back();
    reference::Store store;
    std::vector<GossipNode::DigestEntry> digest;
    const bool empty_digest = trial % 10 == 0;
    for (int k = 0; k < 24; ++k) {
      const std::string key = "key" + std::to_string(k);
      const bool local = rng.chance(0.6);
      const bool remote = !empty_digest && rng.chance(0.6);
      VersionedValue mine;
      if (local) {
        stamp(mine);
        mine.value = "v" + std::to_string(rng.below(1000));
        store.emplace_back(key, mine);
      }
      if (remote) {
        VersionedValue theirs = mine;
        if (!local || rng.chance(0.7)) stamp(theirs);  // else: equal
        digest.push_back(GossipNode::DigestEntry{
            key, theirs.epoch, theirs.version, theirs.origin});
      }
    }
    // A digest lists keys in string order ("key10" before "key2"), as a
    // sender's sorted store does; the reference takes any store order.
    std::sort(digest.begin(), digest.end(),
              [](const auto& x, const auto& y) { return x.key < y.key; });
    rng.shuffle(store);
    probe.send(node.id(), GossipNode::Delta{store});
    sim.run_for(sim::seconds(1));
    ASSERT_EQ(node.store_size(), store.size());

    probe.deltas.clear();
    probe.requests.clear();
    probe.send(node.id(),
               GossipNode::Digest{
                   empty_digest && trial % 20 == 0
                       ? nullptr
                       : std::make_shared<const std::vector<
                             GossipNode::DigestEntry>>(digest)});
    sim.run_for(sim::seconds(1));

    const reference::Reconciled expected = reference::reconcile(store, digest);
    ASSERT_LE(probe.deltas.size(), 1u);
    ASSERT_LE(probe.requests.size(), 1u);
    reference::Store ahead =
        probe.deltas.empty() ? reference::Store{} : probe.deltas[0].entries;
    std::vector<std::string> want =
        probe.requests.empty() ? std::vector<std::string>{}
                               : probe.requests[0].keys;
    const std::uint32_t expected_size =
        GossipNode::Delta{expected.ahead}.wire_size();
    EXPECT_EQ(GossipNode::Delta{ahead}.wire_size(), expected_size);
    const auto by_key = [](const auto& x, const auto& y) {
      return x.first < y.first;
    };
    std::sort(ahead.begin(), ahead.end(), by_key);
    reference::Store expected_ahead = expected.ahead;
    std::sort(expected_ahead.begin(), expected_ahead.end(), by_key);
    ASSERT_EQ(ahead.size(), expected_ahead.size()) << "trial " << trial;
    for (std::size_t i = 0; i < ahead.size(); ++i) {
      const VersionedValue& got = ahead[i].second;
      const VersionedValue& exp = expected_ahead[i].second;
      EXPECT_EQ(ahead[i].first, expected_ahead[i].first) << "trial " << trial;
      EXPECT_EQ(std::tie(got.value, got.epoch, got.version, got.origin),
                std::tie(exp.value, exp.epoch, exp.version, exp.origin))
          << "trial " << trial << " key " << ahead[i].first;
    }
    std::vector<std::string> expected_want = expected.want;
    std::sort(want.begin(), want.end());
    std::sort(expected_want.begin(), expected_want.end());
    EXPECT_EQ(want, expected_want) << "trial " << trial;
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
