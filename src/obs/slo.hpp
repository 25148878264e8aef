// SLO accounting over the metrics registry.
//
// Resilience, measured: the paper's "degrades gracefully" only means
// something against a service-level objective — a latency target each
// request either meets or misses. SloTracker classifies every finished
// request into ok-within-SLO / ok-late / failed counters and records its
// end-to-end latency into the registry's log-bucketed histogram, so
// p50/p99/p99.9 and attainment ride the existing Prometheus/JSON
// exporters (and BENCH_*.json registry snapshots) with no new export
// path. Handles are resolved once at construction, per the registry's
// wiring-time contract.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace riot::obs {

class SloTracker {
 public:
  /// Instruments are named riot_<name>_latency_us and
  /// riot_<name>_requests_total{outcome=...}; `target` is the latency SLO.
  SloTracker(MetricsRegistry& registry, const std::string& name,
             sim::SimTime target);

  /// Record one finished request. `ok` = a successful response reached the
  /// caller (failures count against attainment regardless of latency).
  void record(sim::SimTime latency, bool ok);

  [[nodiscard]] sim::SimTime target() const { return target_; }
  [[nodiscard]] std::uint64_t total() const {
    return ok_within_.value() + ok_late_.value() + failed_.value();
  }
  [[nodiscard]] std::uint64_t ok_within_slo() const {
    return ok_within_.value();
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_.value(); }

  /// Fraction of all finished requests that succeeded within the SLO
  /// (1.0 when nothing finished — an idle service violates no objective).
  [[nodiscard]] double attainment() const;

  [[nodiscard]] double p50_us() const { return latency_us_.p50(); }
  [[nodiscard]] double p99_us() const { return latency_us_.p99(); }
  [[nodiscard]] double p999_us() const { return latency_us_.p999(); }
  [[nodiscard]] const sim::Histogram& latency() const { return latency_us_; }

 private:
  sim::SimTime target_;
  sim::Histogram& latency_us_;
  sim::Counter& ok_within_;
  sim::Counter& ok_late_;
  sim::Counter& failed_;
};

}  // namespace riot::obs
