#include "core/system.hpp"

namespace riot::core {

namespace {
constexpr double kLanRadiusM = 300.0;  // same-site distance threshold
constexpr sim::SimTime kResilienceSamplePeriod = sim::millis(250);
}  // namespace

IoTSystem::IoTSystem(SystemConfig config)
    : cfg_(config),
      world_(config.seed),
      faults_(world_.sim, world_.trace),
      energy_(world_.sim, registry_),
      mobility_(world_.sim, registry_),
      resilience_(world_.sim, kResilienceSamplePeriod) {
  install_link_model();
  // Every fault injection runs under a fresh root span, so its full effect
  // tree (node_down incidents, SWIM suspicion, elections, re-placements)
  // hangs off one trace.
  faults_.set_inject_wrapper(
      [this](const std::string& name, const std::function<void()>& body) {
        const obs::SpanContext root = tracer().start_trace("fault", "inject");
        tracer().annotate(root, "name", name);
        {
          obs::Tracer::Scope scope(tracer(), root);
          body();
        }
        tracer().end(root);
      });
  energy_.on_depleted([this](device::DeviceId id) {
    trace().event("energy", "depleted")
        .warn()
        .node(id.value)
        .detail(registry_.get(id).name);
    crash_device(id);
  });
}

void IoTSystem::install_link_model() {
  network().set_link_model([this](net::NodeId from, net::NodeId to) {
    const auto from_dev = registry_.find_by_node(from);
    const auto to_dev = registry_.find_by_node(to);
    if (!from_dev || !to_dev) return cfg_.latency.lan;
    const device::Device& a = registry_.get(*from_dev);
    const device::Device& b = registry_.get(*to_dev);
    const bool a_cloud = a.cls == device::DeviceClass::kCloud;
    const bool b_cloud = b.cls == device::DeviceClass::kCloud;
    if (a_cloud && b_cloud) return cfg_.latency.lan;  // same datacenter
    if (a_cloud || b_cloud) return cfg_.latency.wan;
    const double distance = a.location.distance_to(b.location);
    return distance <= kLanRadiusM ? cfg_.latency.lan : cfg_.latency.man;
  });
}

device::DeviceId IoTSystem::add_device(device::Device device) {
  return registry_.add(std::move(device));
}

device::DomainId IoTSystem::add_domain(device::AdminDomain domain) {
  return registry_.add_domain(std::move(domain));
}

void IoTSystem::adopt(device::DeviceId host,
                      std::unique_ptr<net::Node> node) {
  auto& bucket = device_nodes_[host.value];
  if (bucket.empty()) {
    registry_.attach_node(host, node->id());
  } else {
    // Secondary components still resolve back to the device.
    registry_.attach_node(host, node->id());
    registry_.get(host).node = bucket.front()->id();
  }
  bucket.push_back(node.get());
  nodes_.push_back(std::move(node));
}

void IoTSystem::crash_device(device::DeviceId id) {
  // Root (or child, under an injection scope) span covering the crash of
  // all of the device's components; each component's node_down incident
  // becomes a child.
  const obs::SpanContext span =
      tracer().start_auto("system", "crash", id.value);
  tracer().annotate(span, "device", registry_.get(id).name);
  {
    obs::Tracer::Scope scope(tracer(), span);
    for (net::Node* node : device_nodes_[id.value]) node->crash();
  }
  tracer().end(span);
  trace().event("system", "crash")
      .warn()
      .node(id.value)
      .detail(registry_.get(id).name)
      .span(span);
}

void IoTSystem::recover_device(device::DeviceId id) {
  const obs::SpanContext span =
      tracer().start_auto("system", "recover", id.value);
  {
    obs::Tracer::Scope scope(tracer(), span);
    for (net::Node* node : device_nodes_[id.value]) node->recover();
  }
  tracer().end(span);
  trace().event("system", "recover")
      .node(id.value)
      .detail(registry_.get(id).name)
      .span(span);
}

bool IoTSystem::device_alive(device::DeviceId id) const {
  auto it = device_nodes_.find(id.value);
  if (it == device_nodes_.end() || it->second.empty()) return true;
  return it->second.front()->alive();
}

const std::vector<net::Node*>& IoTSystem::nodes_of(
    device::DeviceId id) const {
  static const std::vector<net::Node*> kEmpty;
  auto it = device_nodes_.find(id.value);
  return it == device_nodes_.end() ? kEmpty : it->second;
}

}  // namespace riot::core
