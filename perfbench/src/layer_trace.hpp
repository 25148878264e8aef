// The traced run's instruments, driven from outside the program: a
// Simulation::Profiler that attributes handler time and heap allocations
// to each event's component, and an in-memory span log for the calls the
// benchmark itself makes (set-up, warm-up, timed window, drain, sampled
// ClientBank::issue). Neither is installed in an untraced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace riot::perfbench {

/// Per-component totals over every window the profiler was attached for.
struct ComponentRow {
  std::uint64_t events = 0;
  double handler_ns = 0.0;
  std::uint64_t allocs = 0;
};

class LayerProfiler final : public sim::Simulation::Profiler {
 public:
  LayerProfiler() = default;
  LayerProfiler(const LayerProfiler&) = delete;
  LayerProfiler& operator=(const LayerProfiler&) = delete;
  ~LayerProfiler() override { detach(); }

  /// Install on `sim`. Allocations made before this call are not charged.
  void attach(sim::Simulation& sim);
  /// Uninstall and fold the window's rows into the by-name totals.
  void detach();

  /// Allocations since the previous callback are charged to this event:
  /// its handler plus the kernel work that dequeued it.
  void on_event(sim::ComponentId component, sim::SimTime at,
                double wall_micros) override;

  /// Keyed by component name; "sim" is the untagged component.
  [[nodiscard]] const std::map<std::string, ComponentRow>& rows() const {
    return rows_;
  }

 private:
  sim::Simulation* sim_ = nullptr;
  std::vector<ComponentRow> by_id_;
  std::map<std::string, ComponentRow> rows_;
  std::uint64_t alloc_mark_ = 0;
};

/// Spans of the benchmark's own calls, kept in memory and written once at
/// the end. Names must be string literals (no allocation per span).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent = 0;

  /// Reserves room for a run's spans up front, so recording one inside a
  /// traced window does not allocate.
  SpanLog();

  /// Record a finished span; returns its id (ids start at 1).
  std::uint32_t add(const char* name, std::uint32_t rep,
                    std::uint32_t parent, Clock::time_point start,
                    Clock::time_point end);
  /// Open a span now; close() stamps its end.
  std::uint32_t open(const char* name, std::uint32_t rep,
                     std::uint32_t parent = kNoParent);
  void close(std::uint32_t id);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// {"spans":[{"id":..,"parent":..,"rep":..,"name":..,"start_ns":..,
  /// "end_ns":..}]}, times relative to the log's creation.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Span {
    const char* name;
    std::uint32_t rep;
    std::uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace riot::perfbench
