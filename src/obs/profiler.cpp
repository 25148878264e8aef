#include "obs/profiler.hpp"

#include <cmath>
#include <map>
#include <string>

#include "sim/sharded.hpp"

namespace riot::obs {

namespace {

std::vector<sim::Simulation*> shards_of(sim::ShardedSimulation& kernel) {
  std::vector<sim::Simulation*> shards;
  for (std::size_t i = 0; i < kernel.shard_count(); ++i) {
    shards.push_back(&kernel.shard(i));
  }
  return shards;
}

}  // namespace

SimProfiler::SimProfiler(sim::Simulation& simulation)
    : kernels_{&simulation}, collectors_(1) {}

SimProfiler::SimProfiler(sim::ShardedSimulation& kernel)
    : kernels_(shards_of(kernel)), collectors_(kernels_.size()) {}

void SimProfiler::install() {
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    kernels_[i]->set_profiler(&collectors_[i]);
  }
}

void SimProfiler::uninstall() {
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    if (kernels_[i]->profiler() == &collectors_[i]) {
      kernels_[i]->set_profiler(nullptr);
    }
  }
}

void SimProfiler::export_metrics(MetricsRegistry& registry) const {
  struct Totals {
    std::uint64_t events = 0;
    double wall_ns = 0.0;
  };
  std::map<std::string, Totals> merged;
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    const std::vector<Collector::Cell>& cells = collectors_[i].by_component;
    for (std::size_t id = 0; id < cells.size(); ++id) {
      if (cells[id].events == 0) continue;
      Totals& totals = merged[std::string(kernels_[i]->component_name(
          static_cast<sim::ComponentId>(id)))];
      totals.events += cells[id].events;
      totals.wall_ns += cells[id].wall_ns;
    }
  }
  auto& events_family = registry.counter_family(
      "riot_sim_events_total", "simulation events dispatched per component");
  auto& wall_family = registry.counter_family(
      "riot_sim_handler_wall_ns_total",
      "host wall-clock handler time per component, in nanoseconds");
  for (const auto& [name, totals] : merged) {
    events_family.with({{"component", name}}).increment(totals.events);
    wall_family.with({{"component", name}})
        .increment(static_cast<std::uint64_t>(std::llround(totals.wall_ns)));
  }
}

std::uint64_t SimProfiler::total_events() const {
  std::uint64_t total = 0;
  for (const Collector& collector : collectors_) {
    for (const Collector::Cell& cell : collector.by_component) {
      total += cell.events;
    }
  }
  return total;
}

}  // namespace riot::obs
