// What every chaos scenario shares: the runtime a schedule runs on, the
// fault injector and hooks it reaches the stack through, the invariant
// registry, and the run loop.
//
// A scenario builds its stack on the World, binds `hooks` (normally with
// net::chaos_hooks_for), registers its invariants, then calls run() with
// the function that starts its workloads.
#pragma once

#include <cstdint>

#include "net/world.hpp"
#include "obs/chaos_export.hpp"
#include "sim/chaos.hpp"
#include "sim/fault.hpp"

namespace riot::chaos_test {

struct ChaosRun : net::World {
  /// The World is seeded with `schedule.seed ^ salt`, `salt` being the
  /// scenario's own constant.
  ChaosRun(const sim::chaos::ChaosSchedule& schedule,
           const sim::chaos::ChaosProfile& profile, std::uint64_t salt)
      : net::World(schedule.seed ^ salt),
        schedule(schedule),
        profile(profile),
        injector(sim, trace) {}

  /// When the last disruption window has reverted.
  [[nodiscard]] sim::SimTime horizon() const {
    return schedule.horizon != sim::kSimTimeZero ? schedule.horizon
                                                 : profile.horizon;
  }

  /// Tag the run, install the schedule and arm the injector, start the
  /// workloads, poll the `always` invariants every 500 ms (a violation
  /// ends the run early), run to horizon + cooldown, run the final check,
  /// tag the invariant stats and hash the trace. Deterministic for a given
  /// schedule.
  template <typename StartWorkloads>
  sim::chaos::ChaosRunReport run(StartWorkloads&& start_workloads) {
    obs::tag_chaos_run(metrics, schedule);
    sim::chaos::install_schedule(schedule, injector, hooks);
    injector.arm();
    start_workloads();
    sim.schedule_every(sim::millis(500), [this] {
      if (registry.check_now(sim.now(), report.violations) > 0) {
        sim.request_stop();
      }
    });
    sim.run_until(horizon() + profile.cooldown);
    registry.check_final(sim.now(), report.violations);
    obs::tag_invariant_stats(metrics, registry.stats());
    report.trace_hash = sim::chaos::trace_hash(trace);
    return report;
  }

  sim::chaos::ChaosSchedule schedule;
  sim::chaos::ChaosProfile profile;
  sim::FaultInjector injector;
  sim::chaos::ChaosHooks hooks;
  sim::chaos::InvariantRegistry registry;
  sim::chaos::ChaosRunReport report;
};

}  // namespace riot::chaos_test
