#include "membership/heartbeat.hpp"

#include <algorithm>

namespace riot::membership {

namespace {
// Silence before a member is declared dead.
constexpr sim::SimTime kHeartbeatTimeout = sim::seconds(3);
}  // namespace

HeartbeatMonitor::HeartbeatMonitor(net::Network& network)
    : net::Node(network) {
  set_component("heartbeat");
  on<Heartbeat>([this](net::NodeId from, const Heartbeat&) {
    auto [it, inserted] = watched_.try_emplace(from, Watched{});
    it->second.last_heartbeat = now();
    if (!it->second.alive) {
      it->second.alive = true;
      this->network()
          .trace()
          .event("heartbeat", "alive")
          .node(id().value)
          .detail(to_string(from));
      if (alive_cb_) alive_cb_(from);
    }
  });
}

void HeartbeatMonitor::watch(net::NodeId member) {
  watched_.try_emplace(member, Watched{now(), true});
}

bool HeartbeatMonitor::considers_alive(net::NodeId member) const {
  auto it = watched_.find(member);
  return it != watched_.end() && it->second.alive;
}

std::vector<net::NodeId> HeartbeatMonitor::alive_members() const {
  std::vector<net::NodeId> out;
  for (const auto& [member, w] : watched_) {
    if (w.alive) out.push_back(member);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HeartbeatMonitor::on_start() {
  every(kHeartbeatInterval, [this] { sweep(); });
}

void HeartbeatMonitor::on_recover() {
  // A recovered monitor has lost its state: re-learn liveness from the
  // next heartbeats, optimistically resetting clocks so members get a full
  // timeout before being re-declared dead.
  for (auto& [member, w] : watched_) {
    w.last_heartbeat = now();
  }
  every(kHeartbeatInterval, [this] { sweep(); });
}

void HeartbeatMonitor::sweep() {
  for (auto& [member, w] : watched_) {
    if (w.alive && now() - w.last_heartbeat >= kHeartbeatTimeout) {
      w.alive = false;
      const obs::SpanContext span = tracer().start_caused_by(
          member.value, "heartbeat", "dead", id().value);
      this->network()
          .trace()
          .event("heartbeat", "dead")
          .node(id().value)
          .detail(to_string(member))
          .span(span);
      if (dead_cb_) {
        obs::Tracer::Scope scope(tracer(), span);
        dead_cb_(member);
      }
      tracer().end(span);
    }
  }
}

}  // namespace riot::membership
