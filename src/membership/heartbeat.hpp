// Centralized heartbeat failure detection — the ML2 baseline.
//
// The cloud-coupled architectures the paper critiques detect failures with
// a central monitor: every member heartbeats the monitor, the monitor
// declares silence as death. It is simple and bandwidth-cheap, but the
// monitor is a central point of failure and every detection crosses the
// WAN — exactly the properties the maturity-grid benchmarks measure
// against SWIM.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"

namespace riot::membership {

/// Emitters send, and the monitor sweeps, once per interval.
inline constexpr sim::SimTime kHeartbeatInterval = sim::seconds(1);

struct Heartbeat {
  std::uint64_t seq;
};

/// Runs on the monitor (cloud) node.
class HeartbeatMonitor : public net::Node {
 public:
  explicit HeartbeatMonitor(net::Network& network);

  void watch(net::NodeId member);

  [[nodiscard]] bool considers_alive(net::NodeId member) const;
  [[nodiscard]] std::vector<net::NodeId> alive_members() const;

  void on_member_dead(std::function<void(net::NodeId)> cb) {
    dead_cb_ = std::move(cb);
  }
  void on_member_alive(std::function<void(net::NodeId)> cb) {
    alive_cb_ = std::move(cb);
  }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  struct Watched {
    sim::SimTime last_heartbeat = sim::kSimTimeZero;
    bool alive = true;
  };

  void sweep();

  std::unordered_map<net::NodeId, Watched> watched_;
  std::function<void(net::NodeId)> dead_cb_;
  std::function<void(net::NodeId)> alive_cb_;
};

/// Runs on each member; emits heartbeats toward the monitor.
class HeartbeatEmitter : public net::Node {
 public:
  HeartbeatEmitter(net::Network& network, net::NodeId monitor)
      : net::Node(network), monitor_(monitor) {}

 protected:
  void on_start() override { arm(); }
  void on_recover() override { arm(); }

 private:
  void arm() {
    every(kHeartbeatInterval, [this] { send(monitor_, Heartbeat{seq_++}); });
  }

  net::NodeId monitor_;
  std::uint64_t seq_ = 0;
};

}  // namespace riot::membership
