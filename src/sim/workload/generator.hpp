// Open- and closed-loop request arrival generators.
//
// The difference matters for resilience claims (and the two disagree under
// overload, which is the interesting regime):
//
//   open-loop   — arrivals are an exogenous Poisson process shaped by a
//                 RateShape; users do not wait for responses, so offered
//                 load does not fall when the system slows down. This is
//                 the honest model for planet-scale front-door traffic and
//                 the one that exposes queue collapse: measured under it,
//                 goodput < offered load is a *shed/timeout* number, not a
//                 coordination artifact.
//   closed-loop — N users cycle issue -> wait -> think; offered load
//                 self-throttles with latency (session-style clients, and
//                 the model most load generators silently implement).
//
// Both draw every random variate from a split of the simulation RNG and
// execute entirely on the deterministic event kernel, so a (seed, config)
// pair fully determines the arrival trace; `trace_hash()` digests
// (client, nanosecond) pairs so two runs can assert trace equality without
// storing the trace (the determinism tests' oracle).
//
// The open-loop generator uses Lewis–Shedler thinning: candidates are
// drawn from a homogeneous Poisson process at the shape's envelope rate
// (clients * rate * max_multiplier) and accepted with probability
// shape(t) / max — O(1) state at any client count, which is what lets one
// generator stand in for a million users.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/workload/shape.hpp"

namespace riot::sim::workload {

/// FNV-1a over (client, time) pairs; the arrival-trace digest.
class ArrivalHash {
 public:
  void mix(std::uint32_t client, SimTime at) {
    mix_u64(client);
    mix_u64(static_cast<std::uint64_t>(at.count()));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct OpenLoopConfig {
  std::uint64_t clients = 1000;      // logical client population
  double rate_per_client_hz = 1.0;   // base Poisson rate per client
  RateShape shape = RateShape::constant();
};

/// Poisson arrival source over a logical client population. Each arrival
/// invokes the sink with the drawn client index; the sink issues the
/// actual request (an RPC in the serving bench, anything in tests).
class OpenLoopGenerator {
 public:
  using Sink = std::function<void(std::uint32_t client)>;

  /// `label` isolates this generator's RNG stream (two generators with
  /// distinct labels never perturb each other's draws).
  OpenLoopGenerator(Simulation& sim, OpenLoopConfig config, Sink sink,
                    std::string_view label = "workload-open");

  /// Begin generating; the first candidate is drawn immediately. The
  /// generator self-schedules one event per candidate arrival until
  /// stop() or the end of the run.
  void start();
  void stop();

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t candidates() const { return candidates_; }
  [[nodiscard]] std::uint64_t trace_hash() const { return hash_.value(); }

 private:
  void schedule_next();

  Simulation& sim_;
  OpenLoopConfig config_;
  Sink sink_;
  Rng rng_;
  double envelope_hz_ = 0.0;
  bool running_ = false;
  EventId next_event_ = kInvalidEventId;
  std::uint64_t arrivals_ = 0;
  std::uint64_t candidates_ = 0;
  ArrivalHash hash_;
};

struct ClosedLoopConfig {
  std::uint32_t clients = 100;            // concurrent session users
  SimTime think_mean = seconds(1);        // exponential think time
  SimTime first_spread = kSimTimeZero;    // initial stagger window (uniform)
};

/// Session-style users: each cycles issue -> (driver completes) -> think.
/// The driver's sink receives a `done` callback and MUST invoke it exactly
/// once when the request finishes (success or failure); the user then
/// thinks and issues again.
class ClosedLoopGenerator {
 public:
  using Done = std::function<void()>;
  using Sink = std::function<void(std::uint32_t client, Done done)>;

  ClosedLoopGenerator(Simulation& sim, ClosedLoopConfig config, Sink sink,
                      std::string_view label = "workload-closed");

  void start();
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t trace_hash() const { return hash_.value(); }
  /// Users currently waiting for a response (in the issue phase).
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }

 private:
  void think_then_issue(std::uint32_t client, SimTime think);
  void issue(std::uint32_t client);

  Simulation& sim_;
  ClosedLoopConfig config_;
  Sink sink_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t arrivals_ = 0;
  std::uint64_t in_flight_ = 0;
  ArrivalHash hash_;
};

}  // namespace riot::sim::workload
