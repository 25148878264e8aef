// Simulation profiler: per-component event counts and handler wall time.
//
// Profiles one sim::Simulation, or every shard of a sim::ShardedSimulation,
// through the sim::Simulation::Profiler hook. Each kernel gets its own
// collector: plain per-component cells, cache-line aligned and touched only
// by the thread running that kernel, so the event path takes no lock and
// resolves no metric handle. After the run, export_metrics() merges the
// collectors by component *name* (component ids are interned per
// Simulation and may differ across shards) into a registry:
//
//   riot_sim_events_total{component=...}          events dispatched
//   riot_sim_handler_wall_ns_total{component=...} summed handler wall time
//
// Handler time is exported in whole nanoseconds: most handlers cost well
// under a microsecond. Wall timing only happens while a profiler is
// installed — the loop skips the clock reads entirely otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace riot::sim {
class ShardedSimulation;
}  // namespace riot::sim

namespace riot::obs {

class SimProfiler {
 public:
  explicit SimProfiler(sim::Simulation& simulation);
  explicit SimProfiler(sim::ShardedSimulation& kernel);
  ~SimProfiler() { uninstall(); }

  SimProfiler(const SimProfiler&) = delete;
  SimProfiler& operator=(const SimProfiler&) = delete;

  /// Attach one collector per kernel; what they collected so far is kept.
  void install();
  /// Detach the collectors; what they collected stays exportable.
  void uninstall();

  /// Merge every collector into the registry, keyed by component name.
  /// Single-threaded; call after the run.
  void export_metrics(MetricsRegistry& registry) const;

  /// Events dispatched while installed, across all kernels (cheap
  /// cross-check against executed_events()).
  [[nodiscard]] std::uint64_t total_events() const;

 private:
  struct alignas(64) Collector final : sim::Simulation::Profiler {
    struct Cell {
      std::uint64_t events = 0;
      double wall_ns = 0.0;
    };
    std::vector<Cell> by_component;

    void on_event(sim::ComponentId component, sim::SimTime /*at*/,
                  double wall_micros) override {
      if (component >= by_component.size()) {
        by_component.resize(component + std::size_t{1});
      }
      Cell& cell = by_component[component];
      ++cell.events;
      cell.wall_ns += wall_micros * 1e3;
    }
  };

  std::vector<sim::Simulation*> kernels_;
  std::vector<Collector> collectors_;  // collectors_[i] profiles kernels_[i]
};

}  // namespace riot::obs
