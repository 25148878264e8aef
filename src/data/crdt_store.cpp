#include "data/crdt_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace riot::data {

bool merge_objects(CrdtObject& local, const CrdtObject& incoming) {
  if (local.index() != incoming.index()) return false;
  std::visit(
      [&](auto& mine) {
        using T = std::decay_t<decltype(mine)>;
        mine.merge(std::get<T>(incoming));
      },
      local);
  return true;
}

bool objects_equivalent(const CrdtObject& a, const CrdtObject& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&](const auto& mine) {
        using T = std::decay_t<decltype(mine)>;
        const T& theirs = std::get<T>(b);
        if constexpr (std::is_same_v<T, MvRegister<std::string>>) {
          // Sibling order depends on merge order; compare value sets.
          auto lhs = mine.values();
          auto rhs = theirs.values();
          std::sort(lhs.begin(), lhs.end());
          std::sort(rhs.begin(), rhs.end());
          return lhs == rhs;
        } else {
          return mine == theirs;
        }
      },
      a);
}

bool stores_converged(const CrdtStore& a, const CrdtStore& b) {
  if (a.objects().size() != b.objects().size()) return false;
  for (const auto& [key, object] : a.objects()) {
    const auto it = b.objects().find(key);
    if (it == b.objects().end() || !objects_equivalent(object, it->second)) {
      return false;
    }
  }
  return true;
}

CrdtStore::CrdtStore(net::Network& network, CrdtStoreConfig config)
    : net::Node(network),
      cfg_(config),
      rng_(network.simulation().rng().split("crdt" + to_string(id()))) {
  set_component("crdt");
  on<SyncState>([this](net::NodeId from, const SyncState& state) {
    absorb(state);
    // Push-pull: answer a request with our own (post-merge) state so one
    // round converges both directions; replies are terminal.
    if (!state.is_reply) {
      SyncState mine;
      mine.is_reply = true;
      mine.objects.assign(objects_.begin(), objects_.end());
      send(from, std::move(mine));
    }
  });
}

void CrdtStore::set_replicas(std::vector<net::NodeId> replicas) {
  replicas_ = std::move(replicas);
}

template <typename T>
static T& typed_object(std::unordered_map<std::string, CrdtObject>& objects,
                       const std::string& key) {
  auto [it, inserted] = objects.try_emplace(key, T{});
  if (!std::holds_alternative<T>(it->second)) {
    throw std::logic_error("CrdtStore: type mismatch for key '" + key + "'");
  }
  return std::get<T>(it->second);
}

GCounter& CrdtStore::gcounter(const std::string& key) {
  return typed_object<GCounter>(objects_, key);
}
PNCounter& CrdtStore::pncounter(const std::string& key) {
  return typed_object<PNCounter>(objects_, key);
}
LwwRegister<std::string>& CrdtStore::lww(const std::string& key) {
  return typed_object<LwwRegister<std::string>>(objects_, key);
}
OrSet<std::string>& CrdtStore::orset(const std::string& key) {
  return typed_object<OrSet<std::string>>(objects_, key);
}
MvRegister<std::string>& CrdtStore::mvreg(const std::string& key) {
  return typed_object<MvRegister<std::string>>(objects_, key);
}

void CrdtStore::on_start() {
  every(cfg_.sync_interval, [this] { round(); });
}

void CrdtStore::on_recover() {
  // CRDT state is durable in spirit (devices persist their replicas); we
  // model a diskless restart: state re-hydrates from peers' next syncs,
  // and writes in this life go under a fresh replica_id().
  ++boot_count_;
  objects_.clear();
  every(cfg_.sync_interval, [this] { round(); });
}

void CrdtStore::sync_now() { round(); }

void CrdtStore::round() {
  if (replicas_.empty()) return;
  const auto picks = rng_.sample_indices(
      replicas_.size(), static_cast<std::size_t>(cfg_.fanout));
  if (picks.empty()) return;
  // One copy of the store per pick but the last, which takes the original.
  SyncState state;
  state.objects.assign(objects_.begin(), objects_.end());
  for (std::size_t k = 0; k + 1 < picks.size(); ++k) {
    send(replicas_[picks[k]], state);
  }
  send(replicas_[picks.back()], std::move(state));
}

void CrdtStore::absorb(const SyncState& state) {
  for (const auto& [key, incoming] : state.objects) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      objects_.emplace(key, incoming);
      if (merged_cb_) merged_cb_(key);
    } else if (merge_objects(it->second, incoming)) {
      if (merged_cb_) merged_cb_(key);
    }
    // Type mismatch: keep local (split-brain schema bug; surfaced by tests).
  }
}

}  // namespace riot::data
