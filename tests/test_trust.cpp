#include "trust/trust.hpp"

#include <gtest/gtest.h>

#include "net/node_id.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "trust/chaos_checks.hpp"

namespace riot::trust {
namespace {

struct TrustFixture : ::testing::Test {
  sim::Simulation sim{7};
  obs::MetricsRegistry metrics;
  sim::TraceLog trace;

  TrustStore store{sim, metrics, trace};
};

TEST_F(TrustFixture, UnknownPeerScoresThePrior) {
  EXPECT_DOUBLE_EQ(store.score(net::NodeId{42}), 0.5);
  EXPECT_FALSE(store.quarantined(net::NodeId{42}));
  EXPECT_EQ(store.observations(net::NodeId{42}), 0u);
}

TEST_F(TrustFixture, SuccessesRaiseAndFailuresLowerTheScore) {
  const net::NodeId good{1}, bad{2};
  for (int i = 0; i < 10; ++i) {
    store.observe(good, Outcome::kSuccess);
    store.observe(bad, Outcome::kDeadlineMissed);
  }
  EXPECT_GT(store.score(good), 0.8);
  EXPECT_LT(store.score(bad), 0.25);
  EXPECT_EQ(store.observations(good), 10u);
}

TEST_F(TrustFixture, LyingCostsMoreThanMissingDeadlines) {
  const net::NodeId slow{1}, liar{2};
  for (int i = 0; i < 5; ++i) {
    store.observe(slow, Outcome::kDeadlineMissed);
    store.observe(liar, Outcome::kVerifyFailed);
  }
  EXPECT_LT(store.score(liar), store.score(slow))
      << "kVerifyWeight > kDeadlineWeight: falsified results are stronger "
         "evidence of misbehaviour than timeouts";
}

TEST_F(TrustFixture, NeverQuarantinesOnThinEvidence) {
  const net::NodeId peer{3};
  const std::uint64_t min = TrustStore::kMinObservations;
  for (std::uint64_t i = 0; i + 1 < min; ++i) {
    store.observe(peer, Outcome::kVerifyFailed);
    EXPECT_FALSE(store.quarantined(peer))
        << "observation " << i << " of min " << min;
  }
  store.observe(peer, Outcome::kVerifyFailed);
  EXPECT_TRUE(store.quarantined(peer))
      << "enough evidence, score far below the low mark";
  EXPECT_EQ(store.quarantined_count(), 1u);
}

TEST_F(TrustFixture, HysteresisRequiresTheHighMarkToRelease) {
  const net::NodeId peer{4};
  for (int i = 0; i < 10; ++i) store.observe(peer, Outcome::kVerifyFailed);
  ASSERT_TRUE(store.quarantined(peer));

  // Climbing back: the peer stays quarantined while the score sits inside
  // the hysteresis band, and is released only past kReleaseAbove.
  bool released_below_high_mark = false;
  for (int i = 0; i < 60 && store.quarantined(peer); ++i) {
    store.observe(peer, Outcome::kSuccess);
    if (!store.quarantined(peer) &&
        store.score(peer) <= TrustStore::kReleaseAbove) {
      released_below_high_mark = true;
    }
  }
  EXPECT_FALSE(store.quarantined(peer)) << "sustained good behaviour releases";
  EXPECT_FALSE(released_below_high_mark);
  EXPECT_GT(store.score(peer), TrustStore::kReleaseAbove);
  EXPECT_EQ(store.quarantined_count(), 0u);
}

TEST_F(TrustFixture, DecayForgetsOldSins) {
  const net::NodeId peer{5};
  for (int i = 0; i < 8; ++i) store.observe(peer, Outcome::kBreakerTrip);
  const double low = store.score(peer);
  for (int i = 0; i < 30; ++i) store.observe(peer, Outcome::kSuccess);
  EXPECT_GT(store.score(peer), 0.8)
      << "exponential forgetting: recent behaviour dominates (was " << low
      << ")";
}

TEST_F(TrustFixture, ProbeBudgetIsOncePerIntervalAndQuarantinedOnly) {
  const net::NodeId peer{6};
  EXPECT_FALSE(store.should_probe(peer)) << "no probes for healthy peers";
  for (int i = 0; i < 10; ++i) store.observe(peer, Outcome::kVerifyFailed);
  ASSERT_TRUE(store.quarantined(peer));

  EXPECT_FALSE(store.should_probe(peer))
      << "quarantine starts with a full cooling-off interval";
  sim.run_until(sim.now() + TrustStore::kProbeInterval);
  EXPECT_TRUE(store.should_probe(peer));
  EXPECT_FALSE(store.should_probe(peer)) << "slot consumed for this interval";
  sim.run_until(sim.now() + TrustStore::kProbeInterval);
  EXPECT_TRUE(store.should_probe(peer)) << "budget refills after the interval";
}

TEST_F(TrustFixture, QuarantinedPeersListsExactlyTheQuarantined) {
  for (int i = 0; i < 10; ++i) {
    store.observe(net::NodeId{1}, Outcome::kVerifyFailed);
    store.observe(net::NodeId{2}, Outcome::kSuccess);
  }
  const auto peers = store.quarantined_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].value, 1u);
}

TEST_F(TrustFixture, ExportsObservationAndQuarantineMetrics) {
  const net::NodeId peer{1};
  for (int i = 0; i < 10; ++i) store.observe(peer, Outcome::kVerifyFailed);
  store.observe(peer, Outcome::kSuccess);
  ASSERT_TRUE(store.quarantined(peer));
  EXPECT_EQ(metrics.counter_value("riot_trust_observations_total",
                                  {{"outcome", "verify_failed"}}),
            10u);
  EXPECT_EQ(metrics.counter_value("riot_trust_observations_total",
                                  {{"outcome", "success"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("riot_trust_quarantines_total", {}), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge_family("riot_trust_quarantined").with({})
                       .value(),
                   1.0);
}

TEST_F(TrustFixture, QuarantineCheckerSeparatesLiarsFromHonest) {
  const net::NodeId liar{1}, honest{2};
  chaos::QuarantineChecker checker(store);
  checker.mark_adversary(liar);
  EXPECT_EQ(checker.adversary_count(), 1u);

  // Adversary not yet quarantined: the adversaries check names it.
  auto violation = checker.check_adversaries_quarantined();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("peer 1"), std::string::npos);

  for (int i = 0; i < 10; ++i) store.observe(liar, Outcome::kVerifyFailed);
  EXPECT_FALSE(checker.check_adversaries_quarantined().has_value());
  EXPECT_FALSE(checker.check_honest_clear().has_value());

  // An honest peer driven into quarantine trips the honest-clear check.
  for (int i = 0; i < 10; ++i) store.observe(honest, Outcome::kDeadlineMissed);
  violation = checker.check_honest_clear();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("peer 2"), std::string::npos);
}

}  // namespace
}  // namespace riot::trust
