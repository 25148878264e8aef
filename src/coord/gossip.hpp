// Anti-entropy gossip dissemination of versioned key-value state.
//
// The peer-to-peer information-sharing substrate of Section V: each node
// holds a map of keys to (value, version, origin); every round it pushes a
// digest to `fanout` random peers, which pull what they are missing. State
// spreads in O(log n) rounds with per-node cost independent of n — the
// decentralized alternative to funneling state through a broker.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/node.hpp"

namespace riot::coord {

struct GossipConfig {
  sim::SimTime round_interval = sim::millis(500);
  int fanout = 2;
};

struct VersionedValue {
  std::string value;
  // Ordering is (epoch, version, origin) lexicographic. The epoch is the
  // writer's Node::incarnation(): a crash wipes the volatile store and
  // with it the per-key version counters, so a recovered writer's next put
  // would restart at version 1 and lose — cluster-wide, permanently — to
  // its own pre-crash values pushed back by anti-entropy. A higher epoch
  // makes post-recovery writes dominate anything written in an earlier
  // life.
  std::uint32_t epoch = 0;
  std::uint64_t version = 0;     // per-key, monotone; origin breaks ties
  std::uint32_t origin = 0;      // NodeId.value of the writer
};

class GossipNode : public net::Node {
 public:
  GossipNode(net::Network& network, GossipConfig config = {});

  void add_peer(net::NodeId peer);
  void set_peers(std::vector<net::NodeId> peers);

  /// Write (or overwrite) a key locally; the new version gossips outward.
  void put(const std::string& key, std::string value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::size_t store_size() const { return store_.size(); }

  /// Invoked whenever a key changes locally (own put or gossip).
  void on_update(
      std::function<void(const std::string& key, const std::string& value)> cb) {
    update_cb_ = std::move(cb);
  }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  struct DigestEntry {
    std::string key;
    std::uint32_t epoch;
    std::uint64_t version;
    std::uint32_t origin;  // tie-break for concurrent same-version writes
  };
  struct Digest {  // key -> (version, origin) summary, push phase
    // Shared immutable snapshot: the sender builds the entry list once per
    // store generation and every fanout copy (and every in-flight message)
    // bumps a refcount instead of deep-copying 16 keys. Mutations never
    // touch a published vector — round() re-snapshots into a fresh one.
    std::shared_ptr<const std::vector<DigestEntry>> entries;
    std::uint32_t wire_size() const {
      return static_cast<std::uint32_t>(
          (entries == nullptr ? 0 : entries->size()) * 32);
    }
  };
  struct Delta {  // full entries, reply/push phase
    std::vector<std::pair<std::string, VersionedValue>> entries;
    std::uint32_t wire_size() const {
      std::uint32_t total = 16;
      for (const auto& [k, v] : entries) {
        total += static_cast<std::uint32_t>(k.size() + v.value.size() + 16);
      }
      return total;
    }
  };
  struct DigestRequest {  // keys the digest receiver wants
    std::vector<std::string> keys;
  };

  void round();
  void absorb(const std::string& key, const VersionedValue& value);
  [[nodiscard]] const VersionedValue* find_entry(const std::string& key) const;

  GossipConfig cfg_;
  sim::Rng rng_;
  std::vector<net::NodeId> peers_;
  // Flat keyed store. Per-node stores are small (tens of keys, SSO-sized)
  // and there are thousands of nodes at city scale, so a contiguous vector
  // with a linear probe beats a per-node hash table: no hashing, no
  // modulo, no node-walk cache misses — the whole store is a couple of
  // cache lines. Iteration order is insertion order (deterministic).
  std::vector<std::pair<std::string, VersionedValue>> store_;
  std::function<void(const std::string&, const std::string&)> update_cb_;
  // Copy-on-write digest snapshot; invalidated by any store mutation.
  std::shared_ptr<const std::vector<DigestEntry>> digest_cache_;
  // Reconciliation scratch (reused across digest receipts, no per-message
  // allocation): store entries named by the incoming digest.
  std::vector<const VersionedValue*> matched_;
};

}  // namespace riot::coord
