// Fault injection.
//
// The paper (Sections I–III) enumerates the disruptions resilient IoT must
// survive: internal faults (crashes), non-persistent cloud connectivity,
// network partitions, administrative-domain transfer, adverse/untrusted
// environments, and resource exhaustion. FaultInjector turns these into a
// reproducible schedule of actions against hooks registered by the upper
// layers (network, devices, core system).
//
// The injector itself is deliberately generic: a timer over its plan
// entries. It owns *when* disruptions happen (fixed schedule and/or
// Poisson processes) and runs each entry's apply at its start and its
// revert at its end; the registered hooks own *how* they are applied, so
// new disruption types never require kernel changes. What a revert
// restores when windows overlap is the caller's state
// (chaos::install_schedule keeps it).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace riot::sim {

/// A named, reversible disruption. `apply` starts it, `revert` (optional)
/// ends it.
struct Disruption {
  std::string name;
  std::function<void()> apply;
  std::function<void()> revert;  // empty => not reversible (e.g. crash-only)
  // Reverts that land on the same simulation instant run in ascending
  // phase order (FIFO within a phase), regardless of which window started
  // first. This is how composed schedules stay consistent: a partition
  // heal (phase 0) must precede a crash-restart (phase 1) ending at the
  // same instant, or the restarted node's first sends still see the
  // pre-heal topology.
  int revert_phase = 0;
};

/// One entry of a fault plan: disruption active during [start, start+duration).
/// A zero duration with no revert models a one-shot event.
struct PlannedFault {
  SimTime start;
  SimTime duration;
  Disruption disruption;
};

class FaultInjector {
 public:
  FaultInjector(Simulation& simulation, TraceLog& trace)
      : sim_(simulation), trace_(trace), rng_(simulation.rng().split("fault")) {
    trace_.bind_clock(simulation);
  }

  /// Schedule a one-shot or windowed disruption.
  void plan(PlannedFault fault);

  /// Convenience: one-shot event at `at`.
  void plan_at(SimTime at, std::string name, std::function<void()> apply);

  /// Convenience: windowed disruption over [start, start+duration).
  void plan_window(SimTime start, SimTime duration, std::string name,
                   std::function<void()> apply,
                   std::function<void()> revert);

  /// Poisson-process faults: on average every `mean_interarrival`, draw a
  /// target via `make` (which returns the disruption to apply; it may be
  /// windowed via `duration`). Runs until `until`.
  void plan_poisson(SimTime first_after, SimTime until,
                    SimTime mean_interarrival, SimTime duration,
                    std::function<Disruption()> make);

  /// Install all planned faults into the simulation. Call once, before
  /// running. Idempotent per plan entry.
  void arm();

  /// Decorates every disruption's apply() call. The observability layer
  /// installs a wrapper that opens a causal root span and keeps it active
  /// while the disruption runs, so every downstream effect (node_down
  /// incidents, protocol reactions) links back to the injection. The
  /// wrapper MUST invoke `body` exactly once.
  using InjectWrapper =
      std::function<void(const std::string& name,
                         const std::function<void()>& body)>;
  void set_inject_wrapper(InjectWrapper wrapper) {
    wrapper_ = std::move(wrapper);
  }

  [[nodiscard]] std::size_t injected_count() const { return injected_; }
  [[nodiscard]] const std::deque<PlannedFault>& plan_entries() const {
    return plan_;
  }

 private:
  void fire(std::size_t entry);
  void drain_reverts();
  void invoke(const std::string& name, const std::function<void()>& body);

  Simulation& sim_;
  TraceLog& trace_;
  Rng rng_;
  InjectWrapper wrapper_;
  // A deque keeps every entry in place as the plan grows: timers refer to
  // entries by index, and apply and revert run from their own entry, which
  // may plan and arm more faults while it runs.
  std::deque<PlannedFault> plan_;
  // Entries whose revert is due at the current instant. One same-instant
  // event drains them in Disruption::revert_phase order (stable within a
  // phase), so composed windows revert topology before node state.
  std::vector<std::size_t> pending_reverts_;
  bool drain_scheduled_ = false;
  std::size_t armed_ = 0;  // how many plan entries are already installed
  std::size_t injected_ = 0;
};

}  // namespace riot::sim
