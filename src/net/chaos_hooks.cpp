#include "net/chaos_hooks.hpp"

#include <cstdint>
#include <span>

namespace riot::net {
namespace {

std::span<Node* const> endpoints(const LogicalNodes* nodes, std::uint32_t i) {
  if (i >= nodes->size()) return {};
  return (*nodes)[i];
}

/// A hook that applies the per-endpoint Network setter `Set` to every
/// endpoint of a logical node.
template <auto Set, typename... Value>
auto each_endpoint(Network* network, const LogicalNodes* nodes) {
  return [network, nodes](std::uint32_t i, Value... value) {
    for (Node* node : endpoints(nodes, i)) {
      (network->*Set)(node->id(), value...);
    }
  };
}

}  // namespace

sim::chaos::ChaosHooks chaos_hooks_for(Network& network,
                                       const LogicalNodes& nodes) {
  Network* net = &network;
  const LogicalNodes* table = &nodes;
  sim::chaos::ChaosHooks hooks;
  hooks.crash_node = [table](std::uint32_t i) {
    for (Node* node : endpoints(table, i)) node->crash();
  };
  hooks.restart_node = [table](std::uint32_t i) {
    for (Node* node : endpoints(table, i)) node->recover();
  };
  hooks.partition = [net, table](const std::vector<std::uint32_t>& group_a) {
    std::vector<NodeId> side;
    for (const std::uint32_t i : group_a) {
      for (Node* node : endpoints(table, i)) side.push_back(node->id());
    }
    net->partition({side});
  };
  hooks.heal = [net] { net->heal_partition(); };
  hooks.isolate = each_endpoint<&Network::isolate>(net, table);
  hooks.unisolate = each_endpoint<&Network::unisolate>(net, table);
  hooks.ambient_loss = [net](double p) { net->set_ambient_loss(p); };
  hooks.latency_factor = [net](double f) { net->set_latency_factor(f); };
  hooks.duplicate = [net](double p) { net->set_duplicate_probability(p); };
  hooks.clock_skew =
      each_endpoint<&Network::set_clock_skew, sim::SimTime>(net, table);
  hooks.falsify = each_endpoint<&Network::set_falsify, double>(net, table);
  hooks.selective_drop =
      each_endpoint<&Network::set_selective_drop, double>(net, table);
  hooks.delay_inflate =
      each_endpoint<&Network::set_delay_inflation, double>(net, table);
  return hooks;
}

}  // namespace riot::net
