// World — the runtime one simulated deployment runs on.
//
// The kernel, the metrics registry, the span tracer, the trace log and the
// network fabric, built from one seed in that order. The four services
// come first and so outlive the Network, which holds references to them
// (and binds the trace log's clock to the kernel). Benches, test fixtures,
// chaos scenarios and core::IoTSystem all build their stack on one.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace riot::net {

struct World {
  explicit World(std::uint64_t seed)
      : sim(seed), tracer(sim), network(sim, metrics, tracer, trace) {}

  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  sim::TraceLog trace;
  Network network;
};

}  // namespace riot::net
