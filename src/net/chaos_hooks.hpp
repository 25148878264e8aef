// Binding chaos schedules to a live Network.
//
// A chaos schedule names *logical* nodes; a scenario decides which network
// endpoints make up each one (a co-located protocol stack, one RPC server,
// one edge worker). chaos_hooks_for turns that table into the
// sim::chaos::ChaosHooks the harness installs, so every scenario binds the
// same way: per-node actions fan out to the node's endpoints, the global
// knobs act on the whole network.
#pragma once

#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/chaos.hpp"

namespace riot::net {

/// Entry i lists the endpoints of chaos logical node i, in the order each
/// action visits them (crashes and isolation write trace events, so the
/// order is part of a run's trace hash).
using LogicalNodes = std::vector<std::vector<Node*>>;

/// Every ChaosHooks member, bound to `network` and `nodes`:
///   - crash / restart call Node::crash() / recover() on each endpoint;
///   - partition puts every endpoint of the listed nodes on one side;
///   - isolate, unisolate, clock skew, falsify, selective drop and delay
///     inflation set each endpoint;
///   - heal, ambient loss, latency factor and duplication act on the whole
///     network.
/// A logical index past the end of `nodes`, or with no endpoints, is a
/// no-op. The hooks keep pointers to `network` and `nodes`, which must
/// outlive them; each captures at most those two pointers, so copying the
/// hooks allocates nothing.
[[nodiscard]] sim::chaos::ChaosHooks chaos_hooks_for(Network& network,
                                                     const LogicalNodes& nodes);

}  // namespace riot::net
