// The benchmark's three workloads, one repetition at a time.
//
// A repetition builds the system from scratch, brings it to steady state
// (set-up), runs the timed window, then lets it settle and checks the
// outcome. Every simulated quantity a repetition reports is a pure
// function of (workload, seed, shape): repetitions of one seed must agree
// exactly, which is itself part of the correctness gate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layer_trace.hpp"
#include "sim/time.hpp"

namespace riot::perfbench {

enum class Workload : std::uint8_t { kServeHealthy, kServeFaulted, kChaosSoak };

inline constexpr Workload kWorkloads[] = {
    Workload::kServeHealthy, Workload::kServeFaulted, Workload::kChaosSoak};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view name_of(Workload workload);
[[nodiscard]] bool is_serving(Workload workload);
/// Seed used when none is given: bench_serving's 42, bench_chaos_soak's 7777.
[[nodiscard]] std::uint64_t default_seed(Workload workload);

/// Size of one repetition. The defaults are the measured configuration;
/// tests shrink them for smoke runs.
struct Shape {
  // serve-*: 100k logical clients at 0.2 Hz (20k requests per sim-second).
  std::uint64_t clients = 100000;
  double rate_per_client_hz = 0.2;
  sim::SimTime warmup = sim::seconds(2);   // part of set-up
  sim::SimTime window = sim::seconds(10);  // timed
  sim::SimTime drain = sim::seconds(2);    // > the 600 ms request budget
  // chaos-soak: soak_profile() population and cells.
  std::size_t soak_nodes = 200;
  std::size_t soak_cells = 40;
};

/// Instruments of a traced repetition (all optional).
struct RepTrace {
  LayerProfiler* profiler = nullptr;
  SpanLog* spans = nullptr;
  std::uint32_t rep = 0;
};

/// Wall time and allocations of the generator sink's ClientBank::issue
/// calls inside a traced window.
struct IssueCost {
  std::uint64_t calls = 0;
  double ns = 0.0;
  std::uint64_t allocs = 0;
};

struct RepResult {
  double setup_s = 0.0;        // first constructor -> start of timed window
  double window_wall_s = 0.0;  // timed window, wall
  double window_sim_s = 0.0;   // timed window, simulated
  std::uint64_t window_allocs = 0;
  std::uint64_t window_events = 0;
  /// The unit of work allocations are normalized by: requests issued in
  /// the window (serve-*), protocol messages sent (chaos-soak).
  std::uint64_t ops = 0;
  /// Benchmark-level operations and the ones whose outcome was lost or
  /// wrong: requests (serve-*), invariant evaluations (chaos-soak).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ok_pct = 0.0;
  // serve-* only: window requests answered with success within the SLO,
  // and every window request's latency in sim-ms, ascending.
  std::uint64_t ok_within_slo = 0;
  std::vector<double> latencies_ms;
  /// Exact counted metrics, in a fixed order (the digest's input).
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;  // correctness-gate failures
  IssueCost issue;

  [[nodiscard]] std::uint64_t count(std::string_view name) const;
};

[[nodiscard]] RepResult run_rep(Workload workload, std::uint64_t seed,
                                const Shape& shape,
                                const RepTrace* trace = nullptr);

}  // namespace riot::perfbench
