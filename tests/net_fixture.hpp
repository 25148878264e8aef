// Shared fixture for tests that need a live network fabric.
#pragma once

#include <gtest/gtest.h>

#include "net/node.hpp"
#include "net/world.hpp"

namespace riot::testing {

struct NetFixture : ::testing::Test, net::World {
  explicit NetFixture(std::uint64_t seed = 42) : net::World(seed) {}
};

/// Minimal concrete node that records everything it receives.
template <typename Payload>
class Sink : public net::Node {
 public:
  explicit Sink(net::Network& network) : net::Node(network) {
    on<Payload>([this](net::NodeId from, const Payload& p) {
      received.emplace_back(from, p);
    });
  }
  std::vector<std::pair<net::NodeId, Payload>> received;
};

}  // namespace riot::testing
