// Trust / reputation subsystem.
//
// The paper's ML4 maturity level has services spanning administrative
// domains "with different levels of trust"; the companion roadmap treats
// misbehaving (compromised, not merely crashed) components as a
// first-class disruption vector. This module turns *observed task
// outcomes* into a per-endpoint reputation that placement can weight and
// quarantine can act on:
//
//   RPC outcome (deadline met? response verified? breaker tripped?)
//     --> TrustStore::observe  (decayed beta-reputation evidence)
//     --> score in [0, 1]      (posterior mean of the beta distribution)
//     --> hysteresis quarantine (enter < kQuarantineBelow, leave >
//         kReleaseAbove, never on thin evidence) with periodic
//         rehabilitation probes so a recovered or wrongly-accused
//         endpoint earns its way back.
//
// Nothing here knows *why* a result failed verification — the chaos
// harness's Byzantine senders (net falsify/selective-drop/delay-inflate
// hooks) are one producer; a real deployment's result checker is another.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/node_id.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace riot::trust {

/// One observed task outcome attributed to a peer.
enum class Outcome : std::uint8_t {
  kSuccess = 0,     // responded in budget and the result verified
  kDeadlineMissed,  // timed out / budget expired
  kVerifyFailed,    // responded, but the result failed verification
  kBreakerTrip,     // the destination's circuit breaker opened
};
inline constexpr std::size_t kOutcomeCount = 4;

std::string_view to_string(Outcome outcome);

class TrustStore {
 public:
  /// Never quarantine on fewer total observations than this.
  static constexpr std::uint64_t kMinObservations = 6;
  // Hysteresis band: enter quarantine below the low mark, release only
  // above the high one, so a peer hovering at the boundary cannot flap.
  static constexpr double kQuarantineBelow = 0.30;
  static constexpr double kReleaseAbove = 0.60;
  /// Minimum spacing between rehabilitation probes to one quarantined
  /// peer (see should_probe).
  static constexpr sim::SimTime kProbeInterval = sim::seconds(1);

  TrustStore(sim::Simulation& simulation, obs::MetricsRegistry& metrics,
             sim::TraceLog& trace);

  TrustStore(const TrustStore&) = delete;
  TrustStore& operator=(const TrustStore&) = delete;

  /// Fold one outcome into the peer's reputation and update its
  /// quarantine state (hysteresis + min-observations rules).
  void observe(net::NodeId peer, Outcome outcome);

  /// Posterior-mean trust in [0, 1]; unknown peers score 0.5 (the prior).
  [[nodiscard]] double score(net::NodeId peer) const;
  [[nodiscard]] bool quarantined(net::NodeId peer) const;
  [[nodiscard]] std::uint64_t observations(net::NodeId peer) const;

  /// Rehabilitation budget: true at most once per kProbeInterval per
  /// quarantined peer (consumes the slot). Callers route one real task to
  /// the peer and feed its outcome back via observe(); enough verified
  /// successes lift the score over kReleaseAbove and end the quarantine.
  [[nodiscard]] bool should_probe(net::NodeId peer);

  [[nodiscard]] std::size_t quarantined_count() const { return quarantined_; }
  [[nodiscard]] std::vector<net::NodeId> quarantined_peers() const;

 private:
  struct PeerState {
    double alpha = 0.0;  // decayed success evidence
    double beta = 0.0;   // decayed failure evidence
    std::uint64_t observations = 0;
    bool quarantined = false;
    sim::SimTime next_probe_at = sim::kSimTimeZero;
  };

  PeerState& state_of(net::NodeId peer);
  [[nodiscard]] double score_of(const PeerState& s) const;

  sim::Simulation& sim_;
  sim::TraceLog& trace_;
  std::vector<PeerState> peers_;  // indexed by NodeId value
  std::size_t quarantined_ = 0;

  std::array<sim::Counter*, kOutcomeCount> observations_total_;
  sim::Counter& quarantines_total_;
  sim::Counter& releases_total_;
  sim::Counter& probes_total_;
  sim::Gauge& quarantined_gauge_;
};

}  // namespace riot::trust
