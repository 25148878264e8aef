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
}  // namespace

GossipNode::GossipNode(net::Network& network, GossipConfig config)
    : net::Node(network),
      cfg_(config),
      rng_(network.simulation().rng().split("gossip" + to_string(id()))) {
  set_component("gossip");
  on<Digest>([this](net::NodeId from, const Digest& digest) {
    // Push-pull reconciliation: push entries where we are ahead (or the
    // sender is silent), pull keys where the sender is ahead. Ordering is
    // (version, origin) lexicographic — origin breaks concurrent
    // same-version writes deterministically.
    //
    // Hot path at scale: one store lookup per digest entry, and the
    // "which local keys did the sender not mention" test is a linear scan
    // over the pointers collected below instead of a rebuilt hash set —
    // stores are small (tens of keys) and this keeps the steady-state
    // receipt allocation-free.
    Delta ahead;
    DigestRequest want;
    matched_.clear();
    if (digest.entries != nullptr) {
      for (const auto& entry : *digest.entries) {
        const VersionedValue* found = find_entry(entry.key);
        if (found == nullptr) {
          want.keys.push_back(entry.key);
          continue;
        }
        const VersionedValue& local = *found;
        matched_.push_back(&local);
        if (newer(entry.epoch, entry.version, entry.origin, local.epoch,
                  local.version, local.origin)) {
          want.keys.push_back(entry.key);
        } else if (local.epoch != entry.epoch ||
                   local.version != entry.version ||
                   local.origin != entry.origin) {
          ahead.entries.emplace_back(entry.key, local);
        }
      }
    }
    for (const auto& [key, value] : store_) {
      if (std::find(matched_.begin(), matched_.end(), &value) ==
          matched_.end()) {
        ahead.entries.emplace_back(key, value);
      }
    }
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
  peers_.clear();
  for (const net::NodeId p : peers) add_peer(p);
}

void GossipNode::put(const std::string& key, std::string value) {
  VersionedValue* entry = nullptr;
  for (auto& [k, v] : store_) {
    if (k == key) {
      entry = &v;
      break;
    }
  }
  if (entry == nullptr) {
    entry = &store_.emplace_back(key, VersionedValue{}).second;
  }
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
  for (const auto& [k, v] : store_) {
    if (k == key) return &v;
  }
  return nullptr;
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
  VersionedValue* local = nullptr;
  for (auto& [k, v] : store_) {
    if (k == key) {
      local = &v;
      break;
    }
  }
  if (local != nullptr) {
    if (!newer(value.epoch, value.version, value.origin, local->epoch,
               local->version, local->origin)) {
      return;
    }
    *local = value;
  } else {
    store_.emplace_back(key, value);
  }
  digest_cache_.reset();
  if (update_cb_) update_cb_(key, value.value);
}

}  // namespace riot::coord
