// IoTSystem — the composition root.
//
// Owns the simulation kernel, the network fabric, the device registry, the
// fault injector and the resilience evaluator, and wires them together:
// the link model derives latency classes from device placement (LAN within
// a site, MAN between edges, WAN to the cloud), device crashes take all of
// a device's software components down together, and battery depletion is
// a crash like any other.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "device/energy.hpp"
#include "device/mobility.hpp"
#include "device/registry.hpp"
#include "net/node.hpp"
#include "net/world.hpp"
#include "core/resilience.hpp"
#include "sim/fault.hpp"

namespace riot::core {

struct SystemConfig {
  std::uint64_t seed = 1;
  net::LatencyClasses latency;
};

class IoTSystem {
 public:
  explicit IoTSystem(SystemConfig config = {});

  IoTSystem(const IoTSystem&) = delete;
  IoTSystem& operator=(const IoTSystem&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return world_.sim; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return world_.metrics; }
  [[nodiscard]] obs::Tracer& tracer() { return world_.tracer; }
  [[nodiscard]] sim::TraceLog& trace() { return world_.trace; }
  [[nodiscard]] net::Network& network() { return world_.network; }
  [[nodiscard]] device::Registry& registry() { return registry_; }
  [[nodiscard]] sim::FaultInjector& faults() { return faults_; }
  [[nodiscard]] ResilienceEvaluator& resilience() { return resilience_; }
  [[nodiscard]] device::EnergyManager& energy() { return energy_; }
  [[nodiscard]] device::MobilityManager& mobility() { return mobility_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }

  /// Register a device.
  device::DeviceId add_device(device::Device device);
  device::DomainId add_domain(device::AdminDomain domain);

  /// Create a software component (a protocol node) hosted on `host`. The
  /// first component attached to a device becomes its primary network
  /// endpoint. The node's lifetime is owned by the system. start() is
  /// called on it immediately.
  template <typename NodeT, typename... Args>
  NodeT& attach(device::DeviceId host, Args&&... args) {
    auto node =
        std::make_unique<NodeT>(world_.network, std::forward<Args>(args)...);
    NodeT& ref = *node;
    adopt(host, std::move(node));
    ref.start();
    return ref;
  }

  /// All software components of a device crash together (power loss,
  /// kernel panic, battery depletion).
  void crash_device(device::DeviceId id);
  void recover_device(device::DeviceId id);
  [[nodiscard]] bool device_alive(device::DeviceId id) const;

  [[nodiscard]] const std::vector<net::Node*>& nodes_of(
      device::DeviceId id) const;

  /// Run the simulation.
  void run_for(sim::SimTime duration) { world_.sim.run_for(duration); }
  void run_until(sim::SimTime deadline) { world_.sim.run_until(deadline); }

 private:
  void adopt(device::DeviceId host, std::unique_ptr<net::Node> node);
  void install_link_model();

  SystemConfig cfg_;
  net::World world_;
  device::Registry registry_;
  sim::FaultInjector faults_;
  device::EnergyManager energy_;
  device::MobilityManager mobility_;
  ResilienceEvaluator resilience_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::unordered_map<std::uint32_t, std::vector<net::Node*>> device_nodes_;
};

}  // namespace riot::core
