#include "sim/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace riot::sim {

void FaultInjector::plan(PlannedFault fault) {
  if (!fault.disruption.apply) {
    throw std::invalid_argument("FaultInjector::plan: missing apply hook");
  }
  plan_.push_back(std::move(fault));
}

void FaultInjector::plan_at(SimTime at, std::string name,
                            std::function<void()> apply) {
  plan(PlannedFault{at, kSimTimeZero,
                    Disruption{std::move(name), std::move(apply), {}}});
}

void FaultInjector::plan_window(SimTime start, SimTime duration,
                                std::string name,
                                std::function<void()> apply,
                                std::function<void()> revert) {
  plan(PlannedFault{start, duration,
                    Disruption{std::move(name), std::move(apply),
                               std::move(revert)}});
}

void FaultInjector::plan_poisson(SimTime first_after, SimTime until,
                                 SimTime mean_interarrival, SimTime duration,
                                 std::function<Disruption()> make) {
  if (mean_interarrival <= kSimTimeZero) {
    throw std::invalid_argument("plan_poisson: mean_interarrival <= 0");
  }
  // Pre-draw the whole arrival process now so that arming order does not
  // perturb other random streams.
  SimTime t = first_after +
              seconds_f(rng_.exponential(to_seconds(mean_interarrival)));
  while (t < until) {
    plan_.push_back(PlannedFault{t, duration, make()});
    t += seconds_f(rng_.exponential(to_seconds(mean_interarrival)));
  }
}

void FaultInjector::arm() {
  for (; armed_ < plan_.size(); ++armed_) {
    const std::size_t i = armed_;
    sim_.schedule_at(plan_[i].start, [this, i] { fire(i); });
  }
}

void FaultInjector::invoke(const std::string& name,
                           const std::function<void()>& body) {
  if (wrapper_) {
    wrapper_(name, body);
  } else {
    body();
  }
}

void FaultInjector::fire(std::size_t entry) {
  const PlannedFault& fault = plan_[entry];
  ++injected_;
  trace_.event("fault", "inject").warn().detail(fault.disruption.name);
  invoke(fault.disruption.name, fault.disruption.apply);
  if (fault.duration <= kSimTimeZero || !fault.disruption.revert) return;
  // The revert is not executed inline: it joins the same-instant batch
  // that drain_reverts() runs in phase order, so windows ending together
  // revert topology (heals, knob restores) before node state (restarts)
  // no matter which window was armed or fired first.
  sim_.schedule_after(fault.duration, [this, entry] {
    pending_reverts_.push_back(entry);
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      // Same-instant events run FIFO by insertion, so this drain runs
      // after every revert timer already queued for this instant has
      // appended its entry.
      sim_.schedule_at(sim_.now(), [this] { drain_reverts(); });
    }
  });
}

void FaultInjector::drain_reverts() {
  drain_scheduled_ = false;
  std::vector<std::size_t> batch = std::move(pending_reverts_);
  pending_reverts_.clear();
  std::stable_sort(batch.begin(), batch.end(),
                   [this](std::size_t a, std::size_t b) {
                     return plan_[a].disruption.revert_phase <
                            plan_[b].disruption.revert_phase;
                   });
  for (const std::size_t entry : batch) {
    const Disruption& disruption = plan_[entry].disruption;
    trace_.event("fault", "revert").detail(disruption.name);
    invoke(disruption.name, disruption.revert);
  }
}

}  // namespace riot::sim
