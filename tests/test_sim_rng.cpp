#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace riot::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(13);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(n), n);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(29);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(41);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(43);
  for (const double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(47);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(53);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(59);
  const std::vector<double> weights{0.0, 0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.weighted_index(weights));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(67);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_indices(10, 4);
    EXPECT_EQ(sample.size(), 4u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 4u);
    for (const auto idx : sample) EXPECT_LT(idx, 10u);
  }
}

namespace reference {

// sample_indices before the sparse record: a partial Fisher–Yates over a
// materialized index vector.
std::vector<std::size_t> sample_indices(Rng& rng, std::size_t n,
                                        std::size_t k) {
  if (k > n) k = n;
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace reference

TEST(Rng, SampleIndicesMatchDenseFisherYates) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 0},   {0, 3},   {1, 1},   {2, 1},    {4, 1},    {5, 5},
      {10, 4},  {10, 12}, {199, 2}, {199, 3},  {200, 150}, {200, 199},
      {64, 64}, {1000, 7}};
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const auto& [n, k] : shapes) {
      Rng sparse(seed);
      Rng dense(seed);
      EXPECT_EQ(sparse.sample_indices(n, k),
                reference::sample_indices(dense, n, k))
          << "seed " << seed << " n " << n << " k " << k;
      EXPECT_EQ(sparse(), dense()) << "same draws consumed";
    }
  }
  // Pinned: a gossip round's fanout-2 draw from 199 peers.
  Rng rng(7);
  EXPECT_EQ(rng.sample_indices(199, 2), (std::vector<std::size_t>{139, 56}));
  EXPECT_EQ(rng.sample_indices(10, 4), (std::vector<std::size_t>{8, 9, 1, 2}));
}

TEST(Rng, SampleIndicesCapsAtPopulation) {
  Rng rng(71);
  EXPECT_EQ(rng.sample_indices(3, 10).size(), 3u);
  EXPECT_TRUE(rng.sample_indices(0, 5).empty());
}

TEST(Rng, SplitStreamsIndependent) {
  Rng root(73);
  Rng a = root.split("alpha");
  Rng b = root.split("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitDeterministic) {
  Rng r1(99), r2(99);
  Rng a = r1.split("x");
  Rng b = r2.split("x");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BetweenFullInt64Range) {
  // hi - lo + 1 == 2^65 - ... spans the whole uint64 space: the old span
  // arithmetic wrapped to below(0), which is UB. Must draw without faulting
  // and cover both halves of the range.
  Rng rng(101);
  constexpr auto kLo = std::numeric_limits<std::int64_t>::min();
  constexpr auto kHi = std::numeric_limits<std::int64_t>::max();
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(kLo, kHi);
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(Rng, BetweenDegenerateAndBoundarySpans) {
  Rng rng(103);
  constexpr auto kLo = std::numeric_limits<std::int64_t>::min();
  constexpr auto kHi = std::numeric_limits<std::int64_t>::max();
  // Single-point spans always return the point, including the extremes.
  EXPECT_EQ(rng.between(5, 5), 5);
  EXPECT_EQ(rng.between(kLo, kLo), kLo);
  EXPECT_EQ(rng.between(kHi, kHi), kHi);
  // Spans that straddle zero near the extremes stay inside [lo, hi].
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(kLo, kLo + 2);
    EXPECT_GE(v, kLo);
    EXPECT_LE(v, kLo + 2);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(kHi - 2, kHi);
    EXPECT_GE(v, kHi - 2);
    EXPECT_LE(v, kHi);
  }
  // One draw shy of the full range exercises below(2^64 - 1), the largest
  // legal bound.
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = rng.between(kLo + 1, kHi);
    EXPECT_GE(v, kLo + 1);
  }
}

TEST(Rng, BetweenDeterministicForSeed) {
  Rng a(107), b(107);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.between(-1000, 1000), b.between(-1000, 1000));
  }
}

}  // namespace
}  // namespace riot::sim
