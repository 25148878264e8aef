// Link model shared by both network fabrics (net::Network and
// net::ShardedNetwork): the quality of a directed link, the class-pair
// table that resolves it in two array loads, the jitter draw, and the slab
// that holds a message between send and delivery.
//
// Latency classes mirror a contemporary IoT deployment:
//   - kLan:   devices and their local edge/gateway     (~0.5 ms)
//   - kMan:   edge-to-edge within a metro region        (~5 ms)
//   - kWan:   anything traversing the internet to cloud (~50–150 ms)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace riot::net {

/// Quality of a directed link.
struct LinkQuality {
  sim::SimTime base_latency = sim::millis(1);
  sim::SimTime jitter = sim::kSimTimeZero;  // uniform in [0, jitter)
  double loss = 0.0;                        // message loss probability
};

/// Canonical latency classes (see file header).
struct LatencyClasses {
  LinkQuality lan{sim::micros(500), sim::micros(200), 0.001};
  LinkQuality man{sim::millis(5), sim::millis(2), 0.002};
  LinkQuality wan{sim::millis(50), sim::millis(20), 0.005};
};

/// Coarse per-endpoint tier for the class-pair table (device, edge,
/// cloud, ... — the meaning is the caller's). At 10k+ endpoints the
/// per-message link resolution must not run a std::function or hash a pair
/// key; a (from_class, to_class) cell is two array loads.
using LinkClass = std::uint8_t;
constexpr std::size_t kMaxLinkClasses = 16;

/// Latency of one message over `q`: the base latency plus a uniform draw in
/// [0, jitter), truncated to whole nanoseconds. A link without jitter
/// consumes no randomness.
inline sim::SimTime draw_latency(const LinkQuality& q, sim::Rng& rng) {
  sim::SimTime latency = q.base_latency;
  if (q.jitter > sim::kSimTimeZero) {
    latency += sim::nanos(static_cast<std::int64_t>(
        rng.uniform01() * static_cast<double>(q.jitter.count())));
  }
  return latency;
}

/// (from class, to class) → LinkQuality, row-major. A cell that was never
/// set resolves to nothing, and the fabric applies its own fallback.
class ClassLinkTable {
 public:
  /// Throws std::invalid_argument unless both classes are below
  /// kMaxLinkClasses.
  void set(LinkClass from, LinkClass to, LinkQuality quality) {
    if (from >= kMaxLinkClasses || to >= kMaxLinkClasses) {
      throw std::invalid_argument("set_class_link: class too big");
    }
    const std::size_t cell = index(from, to);
    quality_[cell] = quality;
    set_[cell] = true;
    any_ = true;
  }

  /// The cell's quality, or nullptr if it was never set. Both classes must
  /// be below kMaxLinkClasses (the fabrics range-check endpoint classes).
  [[nodiscard]] const LinkQuality* find(LinkClass from, LinkClass to) const {
    const std::size_t cell = index(from, to);
    return set_[cell] ? &quality_[cell] : nullptr;
  }

  /// Whether any cell was set.
  [[nodiscard]] bool any() const { return any_; }

 private:
  static std::size_t index(LinkClass from, LinkClass to) {
    return static_cast<std::size_t>(from) * kMaxLinkClasses + to;
  }

  std::array<LinkQuality, kMaxLinkClasses * kMaxLinkClasses> quality_{};
  std::array<bool, kMaxLinkClasses * kMaxLinkClasses> set_{};
  bool any_ = false;
};

/// Messages between send and delivery. The event that delivers one
/// captures only its slot index, which the kernel's event slot stores
/// inline, so scheduling a delivery allocates nothing. Slots are recycled
/// LIFO (deterministic), and in steady state the slab stops growing.
class FlightSlab {
 public:
  std::uint32_t store(Message&& message) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(message);
      return slot;
    }
    slots_.push_back(std::move(message));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Moves the message out of `slot` and frees the slot.
  Message take(std::uint32_t slot) {
    Message message = std::move(slots_[slot]);
    free_.push_back(slot);
    return message;
  }

 private:
  std::vector<Message> slots_;
  std::vector<std::uint32_t> free_;  // recycled slots, LIFO
};

}  // namespace riot::net
