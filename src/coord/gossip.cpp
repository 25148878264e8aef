#include "coord/gossip.hpp"

#include <algorithm>
#include <tuple>

namespace riot::coord {

namespace {
// (epoch, version, origin) lexicographic — see VersionedValue.
bool newer(std::uint32_t e_a, std::uint64_t v_a, std::uint32_t o_a,
           std::uint32_t e_b, std::uint64_t v_b, std::uint32_t o_b) {
  return std::tie(e_a, v_a, o_a) > std::tie(e_b, v_b, o_b);
}

/// First entry of a key-sorted store whose key is not less than `key`.
template <typename Store>
auto lower_bound_key(Store& store, const std::string& key) {
  return std::lower_bound(
      store.begin(), store.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
}
}  // namespace

GossipNode::GossipNode(net::Network& network, GossipConfig config)
    : net::Node(network),
      cfg_(config),
      rng_(network.simulation().rng().split("gossip" + to_string(id()))) {
  set_component("gossip");
  on<Digest>([this](net::NodeId from, const Digest& digest) {
    // Push-pull reconciliation: push entries where we are ahead (or the
    // sender is silent), pull keys where the sender is ahead. Ordering is
    // (epoch, version, origin) lexicographic — origin breaks concurrent
    // same-version writes deterministically.
    //
    // Digest and store are both in key order, so one lockstep walk
    // classifies every key: one string compare per step, no lookups, and
    // the steady-state receipt stays allocation-free.
    Delta ahead;
    DigestRequest want;
    auto local = store_.cbegin();
    if (digest.entries != nullptr) {
      for (const DigestEntry& entry : *digest.entries) {
        int order = 1;  // > 0: no local entry for entry.key
        for (; local != store_.cend(); ++local) {
          order = local->first.compare(entry.key);
          if (order >= 0) break;
          ahead.entries.push_back(*local);  // the sender never mentioned it
        }
        if (order != 0) {
          want.keys.push_back(entry.key);
          continue;
        }
        const VersionedValue& mine = local->second;
        if (newer(entry.epoch, entry.version, entry.origin, mine.epoch,
                  mine.version, mine.origin)) {
          want.keys.push_back(entry.key);
        } else if (mine.epoch != entry.epoch ||
                   mine.version != entry.version ||
                   mine.origin != entry.origin) {
          ahead.entries.push_back(*local);
        }
        ++local;
      }
    }
    ahead.entries.insert(ahead.entries.end(), local, store_.cend());
    if (!ahead.entries.empty()) send(from, std::move(ahead));
    if (!want.keys.empty()) send(from, std::move(want));
  });
  on<DigestRequest>([this](net::NodeId from, const DigestRequest& req) {
    Delta delta;
    for (const auto& key : req.keys) {
      if (const VersionedValue* found = find_entry(key)) {
        delta.entries.emplace_back(key, *found);
      }
    }
    if (!delta.entries.empty()) send(from, std::move(delta));
  });
  on<Delta>([this](net::NodeId /*from*/, const Delta& delta) {
    for (const auto& [key, value] : delta.entries) absorb(key, value);
  });
}

void GossipNode::add_peer(net::NodeId peer) {
  if (peer != id() &&
      std::find(peers_.begin(), peers_.end(), peer) == peers_.end()) {
    peers_.push_back(peer);
  }
}

void GossipNode::set_peers(std::vector<net::NodeId> peers) {
  // (peer, position) sorted: the first pair of each run of equal peers
  // holds the peer's first position in the list.
  std::vector<std::pair<net::NodeId, std::size_t>> order;
  order.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    order.emplace_back(peers[i], i);
  }
  std::sort(order.begin(), order.end());
  std::vector<bool> keep(peers.size(), false);
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k].first != id() &&
        (k == 0 || order[k].first != order[k - 1].first)) {
      keep[order[k].second] = true;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (keep[i]) peers[kept++] = peers[i];
  }
  peers.resize(kept);
  peers_ = std::move(peers);
}

void GossipNode::put(const std::string& key, std::string value) {
  auto it = lower_bound_key(store_, key);
  if (it == store_.end() || it->first != key) {
    it = store_.emplace(it, key, VersionedValue{});
  }
  VersionedValue* entry = &it->second;
  entry->value = std::move(value);
  // Never step the epoch backwards: the entry may have been absorbed from a
  // writer whose incarnation is ahead of ours, and a lower-epoch overwrite
  // would lose to the very value it replaces.
  entry->epoch =
      std::max(entry->epoch, static_cast<std::uint32_t>(incarnation()));
  ++entry->version;
  entry->origin = id().value;
  digest_cache_.reset();
  if (update_cb_) update_cb_(key, entry->value);
}

std::optional<std::string> GossipNode::get(const std::string& key) const {
  const VersionedValue* found = find_entry(key);
  return found == nullptr ? std::nullopt
                          : std::optional<std::string>(found->value);
}

const VersionedValue* GossipNode::find_entry(const std::string& key) const {
  const auto it = lower_bound_key(store_, key);
  return it != store_.end() && it->first == key ? &it->second : nullptr;
}

void GossipNode::on_start() {
  every(cfg_.round_interval, [this] { round(); });
}

void GossipNode::on_recover() {
  // Volatile store is gone after a crash; anti-entropy refills it. The
  // bumped incarnation keeps writes made in this life ahead of our own
  // pre-crash values still circulating.
  store_.clear();
  digest_cache_.reset();
  every(cfg_.round_interval, [this] { round(); });
}

void GossipNode::round() {
  if (peers_.empty()) return;
  // An empty digest is still useful: the receiver pushes everything we
  // lack, which is how crashed-and-recovered nodes re-hydrate.
  const auto picks = rng_.sample_indices(
      peers_.size(), static_cast<std::size_t>(cfg_.fanout));
  if (digest_cache_ == nullptr) {
    // Snapshot into a fresh vector — in-flight digests may still hold the
    // previous one.
    auto entries = std::make_shared<std::vector<DigestEntry>>();
    entries->reserve(store_.size());
    for (const auto& [key, value] : store_) {
      entries->push_back(
          DigestEntry{key, value.epoch, value.version, value.origin});
    }
    digest_cache_ = std::move(entries);
  }
  for (const std::size_t i : picks) {
    send(peers_[i], Digest{digest_cache_});
  }
}

void GossipNode::absorb(const std::string& key, const VersionedValue& value) {
  // Single-probe form of "if newer_than_local, store_[key] = value".
  const auto it = lower_bound_key(store_, key);
  if (it != store_.end() && it->first == key) {
    VersionedValue& local = it->second;
    if (!newer(value.epoch, value.version, value.origin, local.epoch,
               local.version, local.origin)) {
      return;
    }
    local = value;
  } else {
    store_.emplace(it, key, value);
  }
  digest_cache_.reset();
  if (update_cb_) update_cb_(key, value.value);
}

}  // namespace riot::coord
