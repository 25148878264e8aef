// Replicated CRDT store with anti-entropy synchronization.
//
// Each replica holds named CRDT objects (counters, sets, registers) that
// applications mutate locally without coordination; replicas periodically
// exchange full states and merge. Because every type's merge is a lattice
// join, all replicas converge once the exchange graph is connected again —
// the property Figure 4's data-flow experiments measure across partitions.
//
// For the simulator we sync a uniform value domain: string-keyed objects
// of a small closed set of CRDT types. That keeps the wire format trivial
// while exercising the real merge logic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "data/crdt.hpp"
#include "net/node.hpp"

namespace riot::data {

using CrdtObject = std::variant<GCounter, PNCounter, LwwRegister<std::string>,
                                OrSet<std::string>, MvRegister<std::string>>;

/// Merge `incoming` into `local`; both must hold the same alternative.
/// Returns false (and leaves local untouched) on type mismatch.
bool merge_objects(CrdtObject& local, const CrdtObject& incoming);

/// Observable equivalence of two objects of the same type (for
/// MV-registers: the same sibling *value sets*, since internal entry order
/// depends on merge order). False on type mismatch.
bool objects_equivalent(const CrdtObject& a, const CrdtObject& b);

class CrdtStore;

/// True when both replicas hold the same keys and every pairwise object is
/// observably equivalent — the convergence oracle chaos invariants check
/// after a partition heals.
bool stores_converged(const CrdtStore& a, const CrdtStore& b);

struct CrdtStoreConfig {
  sim::SimTime sync_interval = sim::millis(500);
  int fanout = 1;  // replicas contacted per sync round
};

class CrdtStore : public net::Node {
 public:
  CrdtStore(net::Network& network, CrdtStoreConfig config = {});

  void set_replicas(std::vector<net::NodeId> replicas);  // peers, not self

  /// This incarnation's identity in merge state: the boot count in the
  /// high half, the node id in the low half. A diskless restart forgets
  /// the replica's own counts and tag counters, so a new life writes under
  /// a new id instead of reusing entries its peers already hold.
  [[nodiscard]] ReplicaId replica_id() const {
    return (ReplicaId{boot_count_} << 32) | id().value;
  }

  /// Typed access; creates the object on first use. Throws on type
  /// mismatch with an existing object.
  GCounter& gcounter(const std::string& key);
  PNCounter& pncounter(const std::string& key);
  LwwRegister<std::string>& lww(const std::string& key);
  OrSet<std::string>& orset(const std::string& key);
  MvRegister<std::string>& mvreg(const std::string& key);

  [[nodiscard]] bool has(const std::string& key) const {
    return objects_.contains(key);
  }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }

  /// Read-only view of every object (observation hook for convergence
  /// checkers; no behaviour change).
  [[nodiscard]] const std::unordered_map<std::string, CrdtObject>& objects()
      const {
    return objects_;
  }

  /// Force one sync round now (tests).
  void sync_now();

  /// LWW timestamps need a total order; we use the simulation clock in
  /// nanoseconds. Exposed so applications stamp consistently.
  [[nodiscard]] std::uint64_t lww_now() const {
    return static_cast<std::uint64_t>(now().count());
  }

  void on_merged(std::function<void(const std::string& key)> cb) {
    merged_cb_ = std::move(cb);
  }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  struct SyncState {
    std::vector<std::pair<std::string, CrdtObject>> objects;
    bool is_reply = false;  // replies are not answered (no ping-pong)
    std::uint32_t wire_size() const {
      return static_cast<std::uint32_t>(64 + objects.size() * 96);
    }
  };

  void round();
  void absorb(const SyncState& state);

  CrdtStoreConfig cfg_;
  sim::Rng rng_;
  // Bumped on every recovery and NOT cleared with the objects: the small
  // persistent boot count real devices keep, as in GossipNode.
  std::uint32_t boot_count_ = 0;
  std::vector<net::NodeId> replicas_;
  std::unordered_map<std::string, CrdtObject> objects_;
  std::function<void(const std::string&)> merged_cb_;
};

}  // namespace riot::data
