// Open-addressing hash map for per-request bookkeeping.
//
// std::unordered_map allocates a node per insert, which on the RPC path
// meant three heap allocations per call (pending, in-progress, dedup).
// FlatMap keeps keys and values in one power-of-two bucket array with
// linear probing and backward-shift deletion (no tombstones), so once the
// table has grown to its working-set size, insert and erase never touch
// the heap. It grows on demand (load <= 1/2) and never shrinks.
//
// Deliberately minimal: no iteration (callers never depend on hash order,
// which keeps runs deterministic by construction) and no pointer stability
// across inserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace riot::sim {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr. Invalidated by the next
  /// insert_or_assign or erase.
  [[nodiscard]] Value* find(const Key& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      Bucket& b = buckets_[i];
      if (!b.used) return nullptr;
      if (b.key == key) return &b.value;
    }
  }

  void insert_or_assign(const Key& key, Value value) {
    if ((size_ + 1) * 2 > buckets_.size()) grow();
    for (std::size_t i = home(key);; i = next(i)) {
      Bucket& b = buckets_[i];
      if (!b.used) {
        b = Bucket{key, std::move(value), true};
        ++size_;
        return;
      }
      if (b.key == key) {
        b.value = std::move(value);
        return;
      }
    }
  }

  /// Remove `key`; false when it was absent.
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (!buckets_[hole].used) return false;
      if (buckets_[hole].key == key) break;
    }
    // Backward-shift: pull later members of the probe run into the hole
    // when that moves them no further from their home bucket.
    for (std::size_t i = next(hole);; i = next(i)) {
      Bucket& b = buckets_[i];
      if (!b.used) break;
      const std::size_t mask = buckets_.size() - 1;
      if (((i - home(b.key)) & mask) >= ((i - hole) & mask)) {
        buckets_[hole] = std::move(b);
        hole = i;
      }
    }
    buckets_[hole].used = false;
    --size_;
    return true;
  }

 private:
  struct Bucket {
    Key key{};
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinBuckets = 16;

  // Fibonacci hashing: spreads sequential keys (call ids) over the table
  // and takes the top bits, so any std::hash quality is good enough.
  [[nodiscard]] std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (buckets_.size() - 1);
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    const std::size_t count =
        old.empty() ? kMinBuckets : old.size() * 2;
    buckets_ = std::vector<Bucket>(count);
    shift_ = 64;
    for (std::size_t n = count; n > 1; n >>= 1) --shift_;
    size_ = 0;
    for (Bucket& b : old) {
      if (b.used) insert_or_assign(b.key, std::move(b.value));
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace riot::sim
