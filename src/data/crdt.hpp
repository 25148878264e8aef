// State-based CRDTs (convergent replicated data types).
//
// Section VI: "the particularities of IoT software components require
// novel applications of data synchronization ... in a decentralized
// manner". CRDTs give components data that stays writable during
// partitions and provably converges after anti-entropy exchange — the
// mathematical backing the paper asks of decentralized data management.
//
// All types here are state-based (CvRDTs): `merge` is a join on a
// semilattice (commutative, associative, idempotent), which the property
// tests verify directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace riot::data {

/// A replica's identity in merge state. 64 bits wide so that stores can
/// keep one id per incarnation (boot count in the high half, see
/// CrdtStore::replica_id()).
using ReplicaId = std::uint64_t;

namespace detail {

/// Orders (key, value) entries by key alone.
struct ByKey {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.first < b.first;
  }
};

/// Joins `theirs` into `mine`. Both are sorted by `less` and hold no two
/// equivalent entries. An entry on both sides goes through
/// `join(mine_entry, their_entry)`; the others are copied in by one
/// backward merge, so `mine` allocates only when it has to grow.
template <typename E, typename Less, typename Join>
void join_sorted(std::vector<E>& mine, const std::vector<E>& theirs,
                 Less less, Join join) {
  std::size_t missing = 0;
  auto it = mine.begin();
  for (const E& entry : theirs) {
    while (it != mine.end() && less(*it, entry)) ++it;
    if (it != mine.end() && !less(entry, *it)) {
      join(*it++, entry);
    } else {
      ++missing;
    }
  }
  if (missing == 0) return;
  std::size_t i = mine.size();
  std::size_t j = theirs.size();
  mine.resize(i + missing);
  // Fill from the back; `out - i` is the number of entries of
  // theirs[0, j) still to copy, so the loop ends when the rest of `mine`
  // is already in place.
  for (std::size_t out = mine.size(); out > i;) {
    if (i == 0 || less(mine[i - 1], theirs[j - 1])) {
      mine[--out] = theirs[--j];
    } else {
      if (!less(theirs[j - 1], mine[i - 1])) --j;  // joined above
      mine[--out] = std::move(mine[--i]);
    }
  }
}

/// Unites the sorted, duplicate-free `theirs` into `mine`.
template <typename V>
void unite_sorted(std::vector<V>& mine, const std::vector<V>& theirs) {
  join_sorted(mine, theirs, std::less<>{}, [](V&, const V&) {});
}

/// The first entry of a key-sorted vector whose key is not below `key`.
template <typename Entries, typename K>
auto lower_key(Entries& entries, const K& key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& entry, const K& k) { return entry.first < k; });
}

/// The entry for `key` in a key-sorted vector, or end().
template <typename Entries, typename K>
auto find_key(Entries& entries, const K& key) {
  const auto it = lower_key(entries, key);
  return it != entries.end() && !(key < it->first) ? it : entries.end();
}

/// The value for `key` in a key-sorted vector, inserted value-initialised
/// when missing.
template <typename K, typename V>
V& slot(std::vector<std::pair<K, V>>& entries, const K& key) {
  auto it = lower_key(entries, key);
  if (it == entries.end() || key < it->first) {
    it = entries.emplace(it, key, V{});
  }
  return it->second;
}

/// Per-replica maximum, the join of G-Counter counts and tag counters.
inline void keep_max(std::pair<ReplicaId, std::uint64_t>& mine,
                     const std::pair<ReplicaId, std::uint64_t>& theirs) {
  mine.second = std::max(mine.second, theirs.second);
}

}  // namespace detail

/// Grow-only counter: per-replica non-decreasing counts; value = sum.
/// Counts are a replica-sorted vector, so a copy is one allocation and a
/// merge is one linear pass.
class GCounter {
 public:
  void increment(ReplicaId replica, std::uint64_t by = 1) {
    detail::slot(counts_, replica) += by;
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& [r, c] : counts_) sum += c;
    return sum;
  }
  void merge(const GCounter& other) {
    detail::join_sorted(counts_, other.counts_, detail::ByKey{},
                        detail::keep_max);
  }
  [[nodiscard]] bool operator==(const GCounter&) const = default;

 private:
  std::vector<std::pair<ReplicaId, std::uint64_t>> counts_;  // by replica
};

/// Increment/decrement counter as a pair of G-Counters.
class PNCounter {
 public:
  void increment(ReplicaId replica, std::uint64_t by = 1) {
    positive_.increment(replica, by);
  }
  void decrement(ReplicaId replica, std::uint64_t by = 1) {
    negative_.increment(replica, by);
  }
  [[nodiscard]] std::int64_t value() const {
    return static_cast<std::int64_t>(positive_.value()) -
           static_cast<std::int64_t>(negative_.value());
  }
  void merge(const PNCounter& other) {
    positive_.merge(other.positive_);
    negative_.merge(other.negative_);
  }
  [[nodiscard]] bool operator==(const PNCounter&) const = default;

 private:
  GCounter positive_;
  GCounter negative_;
};

/// Last-writer-wins register. Ties on the timestamp break by replica id,
/// so merge stays deterministic and commutative. LWW *loses concurrent
/// updates by design* — the sync-strategy ablation measures exactly this
/// against OR-Set/MV-Register.
template <typename T>
class LwwRegister {
 public:
  void set(T value, std::uint64_t timestamp, ReplicaId replica) {
    if (wins(timestamp, replica)) {
      value_ = std::move(value);
      timestamp_ = timestamp;
      replica_ = replica;
      has_value_ = true;
    }
  }
  [[nodiscard]] const std::optional<T> value() const {
    return has_value_ ? std::optional<T>(value_) : std::nullopt;
  }
  [[nodiscard]] std::uint64_t timestamp() const { return timestamp_; }
  void merge(const LwwRegister& other) {
    if (other.has_value_ && wins(other.timestamp_, other.replica_)) {
      value_ = other.value_;
      timestamp_ = other.timestamp_;
      replica_ = other.replica_;
      has_value_ = true;
    }
  }
  [[nodiscard]] bool operator==(const LwwRegister&) const = default;

 private:
  [[nodiscard]] bool wins(std::uint64_t timestamp, ReplicaId replica) const {
    if (!has_value_) return true;
    if (timestamp != timestamp_) return timestamp > timestamp_;
    return replica > replica_;
  }

  T value_{};
  std::uint64_t timestamp_ = 0;
  ReplicaId replica_ = 0;
  bool has_value_ = false;
};

/// Multi-value register: keeps *all* concurrent writes (version-vector
/// based); readers see the set of siblings and resolve at the application
/// level. The convergent alternative to LWW when losing a concurrent
/// update is unacceptable.
template <typename T>
class MvRegister {
 public:
  void set(T value, ReplicaId replica) {
    // New write dominates everything currently known locally.
    std::map<ReplicaId, std::uint64_t> vv = combined_vv();
    ++vv[replica];
    entries_.clear();
    entries_.push_back(Entry{std::move(value), std::move(vv)});
  }

  [[nodiscard]] std::vector<T> values() const {
    std::vector<T> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.value);
    return out;
  }
  [[nodiscard]] std::size_t sibling_count() const { return entries_.size(); }

  void merge(const MvRegister& other) {
    std::vector<Entry> all = entries_;
    for (const auto& e : other.entries_) {
      if (!contains(all, e)) all.push_back(e);
    }
    // Keep only entries not dominated by another entry.
    std::vector<Entry> kept;
    for (const auto& candidate : all) {
      bool dominated = false;
      for (const auto& other_entry : all) {
        if (&candidate != &other_entry &&
            dominates(other_entry.vv, candidate.vv)) {
          dominated = true;
          break;
        }
      }
      if (!dominated && !contains(kept, candidate)) kept.push_back(candidate);
    }
    entries_ = std::move(kept);
  }

 private:
  struct Entry {
    T value;
    std::map<ReplicaId, std::uint64_t> vv;
    [[nodiscard]] bool operator==(const Entry&) const = default;
  };

  static bool contains(const std::vector<Entry>& v, const Entry& e) {
    return std::find(v.begin(), v.end(), e) != v.end();
  }

  /// a strictly dominates b (a >= b pointwise and a != b).
  static bool dominates(const std::map<ReplicaId, std::uint64_t>& a,
                        const std::map<ReplicaId, std::uint64_t>& b) {
    bool strictly_greater = false;
    for (const auto& [r, c] : b) {
      auto it = a.find(r);
      const std::uint64_t av = it == a.end() ? 0 : it->second;
      if (av < c) return false;
      if (av > c) strictly_greater = true;
    }
    for (const auto& [r, c] : a) {
      if (c > 0 && b.find(r) == b.end()) strictly_greater = true;
    }
    return strictly_greater;
  }

  [[nodiscard]] std::map<ReplicaId, std::uint64_t> combined_vv() const {
    std::map<ReplicaId, std::uint64_t> vv;
    for (const auto& e : entries_) {
      for (const auto& [r, c] : e.vv) {
        auto& mine = vv[r];
        mine = std::max(mine, c);
      }
    }
    return vv;
  }

  std::vector<Entry> entries_;
};

/// Observed-remove set: adds win over concurrent removes; removal only
/// affects add-instances the remover has seen (unique tags).
///
/// Live elements and tombstones are element-sorted vectors of sorted tag
/// vectors, so copying a set costs one allocation per vector, not one per
/// tag, and merging two converged sets walks both once without
/// allocating. Every merge drops the live tags a tombstone covers.
/// T must be default-constructible.
template <typename T>
class OrSet {
 public:
  void add(const T& element, ReplicaId replica) {
    const Tag tag{replica, ++detail::slot(tag_counters_, replica)};
    Tags& tags = detail::slot(live_, element);
    tags.insert(std::upper_bound(tags.begin(), tags.end(), tag), tag);
  }

  void remove(const T& element) {
    const auto it = detail::find_key(live_, element);
    if (it == live_.end()) return;
    detail::unite_sorted(detail::slot(tombstones_, element), it->second);
    live_.erase(it);
  }

  [[nodiscard]] bool contains(const T& element) const {
    return detail::find_key(live_, element) != live_.end();
  }

  [[nodiscard]] std::set<T> elements() const {
    std::set<T> out;
    for (const auto& [element, tags] : live_) out.insert(out.end(), element);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return live_.size(); }

  void merge(const OrSet& other) {
    const auto unite = [](Entry& mine, const Entry& theirs) {
      detail::unite_sorted(mine.second, theirs.second);
    };
    detail::join_sorted(tombstones_, other.tombstones_, detail::ByKey{},
                        unite);
    detail::join_sorted(live_, other.live_, detail::ByKey{}, unite);
    drop_tombstoned();
    // Tag counters: max per replica, so future adds stay unique.
    detail::join_sorted(tag_counters_, other.tag_counters_, detail::ByKey{},
                        detail::keep_max);
  }

  [[nodiscard]] bool operator==(const OrSet& other) const {
    return std::ranges::equal(live_, other.live_, {}, &Entry::first,
                              &Entry::first);
  }

 private:
  using Tag = std::pair<ReplicaId, std::uint64_t>;
  using Tags = std::vector<Tag>;  // sorted
  using Entry = std::pair<T, Tags>;

  /// Drops every live tag a tombstone covers, then the elements left
  /// without tags. One lockstep pass over both element vectors.
  void drop_tombstoned() {
    auto dead = tombstones_.begin();
    for (auto& [element, tags] : live_) {
      while (dead != tombstones_.end() && dead->first < element) ++dead;
      if (dead == tombstones_.end()) break;
      if (element < dead->first) continue;
      const Tags& covered = dead->second;
      std::erase_if(tags, [&covered](const Tag& tag) {
        return std::binary_search(covered.begin(), covered.end(), tag);
      });
    }
    std::erase_if(live_, [](const Entry& e) { return e.second.empty(); });
  }

  std::vector<Entry> live_;        // by element; tag vectors never empty
  std::vector<Entry> tombstones_;  // by element
  std::vector<std::pair<ReplicaId, std::uint64_t>> tag_counters_;  // by id
};

}  // namespace riot::data
