#include "trust/trust.hpp"

namespace riot::trust {

namespace {
// Beta prior: one phantom success and one phantom failure, so a fresh peer
// starts at 0.5 and single outcomes cannot saturate the score.
constexpr double kPriorAlpha = 1.0;
constexpr double kPriorBeta = 1.0;
// Evidence decay applied per observation (exponential forgetting): the
// effective window is ~1/(1-decay) observations, so recent behaviour
// dominates and rehabilitation is possible at all.
constexpr double kDecay = 0.9;
// Failure evidence weights. A falsified result is worth far more suspicion
// than a missed deadline: deadlines are also missed for innocent reasons
// (loss, congestion), lying is not.
constexpr double kDeadlineWeight = 1.0;
constexpr double kVerifyWeight = 4.0;
constexpr double kBreakerWeight = 2.0;
}  // namespace

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSuccess: return "success";
    case Outcome::kDeadlineMissed: return "deadline_missed";
    case Outcome::kVerifyFailed: return "verify_failed";
    case Outcome::kBreakerTrip: return "breaker_trip";
  }
  return "unknown";
}

TrustStore::TrustStore(sim::Simulation& simulation,
                       obs::MetricsRegistry& metrics, sim::TraceLog& trace)
    : sim_(simulation),
      trace_(trace),
      quarantines_total_(metrics
                             .counter_family("riot_trust_quarantines_total",
                                             "peers placed in quarantine")
                             .with({})),
      releases_total_(metrics
                          .counter_family("riot_trust_releases_total",
                                          "peers released from quarantine")
                          .with({})),
      probes_total_(metrics
                        .counter_family("riot_trust_probes_total",
                                        "rehabilitation probes granted")
                        .with({})),
      quarantined_gauge_(metrics
                             .gauge_family("riot_trust_quarantined",
                                           "peers currently quarantined")
                             .with({})) {
  auto& observations = metrics.counter_family(
      "riot_trust_observations_total", "task outcomes folded into "
                                       "reputations, by outcome");
  observations_total_ = {
      &observations.with({{"outcome", "success"}}),
      &observations.with({{"outcome", "deadline_missed"}}),
      &observations.with({{"outcome", "verify_failed"}}),
      &observations.with({{"outcome", "breaker_trip"}}),
  };
}

TrustStore::PeerState& TrustStore::state_of(net::NodeId peer) {
  if (peers_.size() <= peer.value) peers_.resize(peer.value + 1);
  return peers_[peer.value];
}

double TrustStore::score_of(const PeerState& s) const {
  const double alpha = s.alpha + kPriorAlpha;
  const double beta = s.beta + kPriorBeta;
  return alpha / (alpha + beta);
}

void TrustStore::observe(net::NodeId peer, Outcome outcome) {
  PeerState& s = state_of(peer);
  s.alpha *= kDecay;
  s.beta *= kDecay;
  switch (outcome) {
    case Outcome::kSuccess: s.alpha += 1.0; break;
    case Outcome::kDeadlineMissed: s.beta += kDeadlineWeight; break;
    case Outcome::kVerifyFailed: s.beta += kVerifyWeight; break;
    case Outcome::kBreakerTrip: s.beta += kBreakerWeight; break;
  }
  ++s.observations;
  observations_total_[static_cast<std::size_t>(outcome)]->increment();

  const double score = score_of(s);
  if (!s.quarantined && s.observations >= kMinObservations &&
      score < kQuarantineBelow) {
    s.quarantined = true;
    s.next_probe_at = sim_.now() + kProbeInterval;
    ++quarantined_;
    quarantines_total_.increment();
    quarantined_gauge_.set(static_cast<double>(quarantined_));
    trace_.event("trust", "quarantine")
        .warn()
        .node(peer.value)
        .kv("score_pct", static_cast<std::int64_t>(score * 100.0));
  } else if (s.quarantined && score > kReleaseAbove) {
    s.quarantined = false;
    --quarantined_;
    releases_total_.increment();
    quarantined_gauge_.set(static_cast<double>(quarantined_));
    trace_.event("trust", "release")
        .node(peer.value)
        .kv("score_pct", static_cast<std::int64_t>(score * 100.0));
  }
}

double TrustStore::score(net::NodeId peer) const {
  if (peer.value >= peers_.size()) {
    return kPriorAlpha / (kPriorAlpha + kPriorBeta);
  }
  return score_of(peers_[peer.value]);
}

bool TrustStore::quarantined(net::NodeId peer) const {
  return peer.value < peers_.size() && peers_[peer.value].quarantined;
}

std::uint64_t TrustStore::observations(net::NodeId peer) const {
  return peer.value < peers_.size() ? peers_[peer.value].observations : 0;
}

bool TrustStore::should_probe(net::NodeId peer) {
  PeerState& s = state_of(peer);
  if (!s.quarantined) return false;
  if (sim_.now() < s.next_probe_at) return false;
  s.next_probe_at = sim_.now() + kProbeInterval;
  probes_total_.increment();
  return true;
}

std::vector<net::NodeId> TrustStore::quarantined_peers() const {
  std::vector<net::NodeId> out;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].quarantined) {
      out.push_back(net::NodeId{static_cast<std::uint32_t>(i)});
    }
  }
  return out;
}

}  // namespace riot::trust
