// CRDT semantics plus the lattice laws every state-based CRDT must obey:
// merge is commutative, associative and idempotent. The laws are checked
// by randomized property sweeps over generated operation histories.
#include "data/crdt.hpp"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <set>

#include "sim/rng.hpp"

namespace riot::data {
namespace {

// The node-based GCounter and OrSet that the sorted-vector ones replaced,
// kept as an executable specification for the differential test below.
namespace reference {

class GCounter {
 public:
  void increment(ReplicaId replica, std::uint64_t by = 1) {
    counts_[replica] += by;
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& [r, c] : counts_) sum += c;
    return sum;
  }
  void merge(const GCounter& other) {
    for (const auto& [r, c] : other.counts_) {
      auto& mine = counts_[r];
      mine = std::max(mine, c);
    }
  }
  [[nodiscard]] bool operator==(const GCounter&) const = default;

 private:
  std::map<ReplicaId, std::uint64_t> counts_;
};

template <typename T>
class OrSet {
 public:
  void add(const T& element, ReplicaId replica) {
    const Tag tag{replica, ++tag_counters_[replica]};
    live_[element].insert(tag);
  }

  void remove(const T& element) {
    auto it = live_.find(element);
    if (it == live_.end()) return;
    for (const Tag& tag : it->second) tombstones_[element].insert(tag);
    live_.erase(it);
  }

  [[nodiscard]] bool contains(const T& element) const {
    return live_.find(element) != live_.end();
  }

  [[nodiscard]] std::set<T> elements() const {
    std::set<T> out;
    for (const auto& [element, tags] : live_) out.insert(element);
    return out;
  }

  void merge(const OrSet& other) {
    for (const auto& [element, tags] : other.tombstones_) {
      tombstones_[element].insert(tags.begin(), tags.end());
    }
    for (const auto& [element, tags] : other.live_) {
      live_[element].insert(tags.begin(), tags.end());
    }
    for (auto it = live_.begin(); it != live_.end();) {
      auto ts = tombstones_.find(it->first);
      if (ts != tombstones_.end()) {
        for (const Tag& dead : ts->second) it->second.erase(dead);
      }
      it = it->second.empty() ? live_.erase(it) : std::next(it);
    }
    for (const auto& [r, c] : other.tag_counters_) {
      auto& mine = tag_counters_[r];
      mine = std::max(mine, c);
    }
  }

  [[nodiscard]] bool operator==(const OrSet& other) const {
    return elements() == other.elements();
  }

 private:
  using Tag = std::pair<ReplicaId, std::uint64_t>;

  std::map<T, std::set<Tag>> live_;
  std::map<T, std::set<Tag>> tombstones_;
  std::map<ReplicaId, std::uint64_t> tag_counters_;
};

}  // namespace reference

// --- GCounter ---------------------------------------------------------------

TEST(GCounter, IncrementAndValue) {
  GCounter c;
  c.increment(0);
  c.increment(0, 4);
  c.increment(1, 2);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GCounter, MergeTakesMax) {
  GCounter a, b;
  a.increment(0, 5);
  b.increment(0, 3);
  b.increment(1, 2);
  a.merge(b);
  EXPECT_EQ(a.value(), 7u);  // max(5,3) + 2
}

// --- PNCounter ---------------------------------------------------------------

TEST(PNCounter, IncrementDecrement) {
  PNCounter c;
  c.increment(0, 10);
  c.decrement(1, 3);
  EXPECT_EQ(c.value(), 7);
  c.decrement(0, 10);
  EXPECT_EQ(c.value(), -3);
}

TEST(PNCounter, MergeConverges) {
  PNCounter a, b;
  a.increment(0, 5);
  b.decrement(1, 2);
  PNCounter a_copy = a;
  a.merge(b);
  b.merge(a_copy);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.value(), 3);
}

// --- LwwRegister ---------------------------------------------------------------

TEST(LwwRegister, LatestTimestampWins) {
  LwwRegister<std::string> r;
  r.set("first", 10, 0);
  r.set("second", 20, 0);
  r.set("stale", 15, 0);
  EXPECT_EQ(r.value(), "second");
}

TEST(LwwRegister, TieBrokenByReplica) {
  LwwRegister<std::string> a, b;
  a.set("from-low", 10, 1);
  b.set("from-high", 10, 2);
  a.merge(b);
  b.merge(a);
  EXPECT_EQ(a.value(), "from-high");
  EXPECT_EQ(b.value(), "from-high");
}

TEST(LwwRegister, LosesConcurrentUpdate) {
  // The documented weakness the sync ablation measures: one of two
  // concurrent writes disappears.
  LwwRegister<std::string> a, b;
  a.set("alpha", 10, 1);
  b.set("beta", 10, 2);
  a.merge(b);
  EXPECT_NE(a.value(), "alpha");
}

TEST(LwwRegister, EmptyHasNoValue) {
  LwwRegister<int> r;
  EXPECT_FALSE(r.value().has_value());
}

// --- MvRegister ---------------------------------------------------------------

TEST(MvRegister, KeepsConcurrentSiblings) {
  MvRegister<std::string> a, b;
  a.set("alpha", 1);
  b.set("beta", 2);
  a.merge(b);
  EXPECT_EQ(a.sibling_count(), 2u);
  const auto values = a.values();
  EXPECT_NE(std::find(values.begin(), values.end(), "alpha"), values.end());
  EXPECT_NE(std::find(values.begin(), values.end(), "beta"), values.end());
}

TEST(MvRegister, NewWriteDominatesMergedState) {
  MvRegister<std::string> a, b;
  a.set("alpha", 1);
  b.set("beta", 2);
  a.merge(b);
  ASSERT_EQ(a.sibling_count(), 2u);
  a.set("resolved", 1);  // causally after both siblings
  EXPECT_EQ(a.sibling_count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.sibling_count(), 1u);
  EXPECT_EQ(b.values()[0], "resolved");
}

TEST(MvRegister, SequentialWritesKeepOne) {
  MvRegister<int> r;
  r.set(1, 0);
  r.set(2, 0);
  EXPECT_EQ(r.sibling_count(), 1u);
  EXPECT_EQ(r.values()[0], 2);
}

// --- OrSet ---------------------------------------------------------------

TEST(OrSet, AddRemoveContains) {
  OrSet<std::string> s;
  s.add("x", 0);
  EXPECT_TRUE(s.contains("x"));
  s.remove("x");
  EXPECT_FALSE(s.contains("x"));
  EXPECT_EQ(s.size(), 0u);
}

TEST(OrSet, AddWinsOverConcurrentRemove) {
  OrSet<std::string> a, b;
  a.add("x", 1);
  b.merge(a);
  // b removes x while a concurrently re-adds it.
  b.remove("x");
  a.add("x", 1);
  a.merge(b);
  b.merge(a);
  EXPECT_TRUE(a.contains("x"));
  EXPECT_TRUE(b.contains("x"));
}

TEST(OrSet, RemoveOnlyAffectsObservedAdds) {
  OrSet<std::string> a, b;
  a.add("x", 1);
  // b never saw the add; removing at b is a no-op.
  b.remove("x");
  a.merge(b);
  EXPECT_TRUE(a.contains("x"));
}

TEST(OrSet, ElementsSorted) {
  OrSet<int> s;
  s.add(3, 0);
  s.add(1, 0);
  s.add(2, 0);
  const auto elements = s.elements();
  EXPECT_EQ(elements, (std::set<int>{1, 2, 3}));
}

// --- Lattice laws (property sweep) -------------------------------------------

/// Generate a random GCounter state.
GCounter random_gcounter(sim::Rng& rng) {
  GCounter c;
  for (int i = 0; i < 5; ++i) {
    c.increment(static_cast<ReplicaId>(rng.below(4)), rng.below(10));
  }
  return c;
}

PNCounter random_pncounter(sim::Rng& rng) {
  PNCounter c;
  for (int i = 0; i < 5; ++i) {
    const auto r = static_cast<ReplicaId>(rng.below(4));
    if (rng.chance(0.5)) {
      c.increment(r, rng.below(10));
    } else {
      c.decrement(r, rng.below(10));
    }
  }
  return c;
}

OrSet<int> random_orset(sim::Rng& rng, ReplicaId replica) {
  OrSet<int> s;
  for (int i = 0; i < 6; ++i) {
    const int element = static_cast<int>(rng.below(5));
    if (rng.chance(0.7)) {
      s.add(element, replica);
    } else {
      s.remove(element);
    }
  }
  return s;
}

class CrdtLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrdtLaws, GCounterMergeLaws) {
  sim::Rng rng(GetParam());
  const GCounter a = random_gcounter(rng);
  const GCounter b = random_gcounter(rng);
  const GCounter c = random_gcounter(rng);
  // Commutativity.
  GCounter ab = a;
  ab.merge(b);
  GCounter ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  // Associativity.
  GCounter ab_c = ab;
  ab_c.merge(c);
  GCounter bc = b;
  bc.merge(c);
  GCounter a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
  // Idempotence.
  GCounter aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);
}

TEST_P(CrdtLaws, PNCounterMergeLaws) {
  sim::Rng rng(GetParam() ^ 0x1234);
  const PNCounter a = random_pncounter(rng);
  const PNCounter b = random_pncounter(rng);
  PNCounter ab = a;
  ab.merge(b);
  PNCounter ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  PNCounter aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);
}

TEST_P(CrdtLaws, OrSetMergeLaws) {
  sim::Rng rng(GetParam() ^ 0x5678);
  const OrSet<int> a = random_orset(rng, 1);
  const OrSet<int> b = random_orset(rng, 2);
  const OrSet<int> c = random_orset(rng, 3);
  OrSet<int> ab = a;
  ab.merge(b);
  OrSet<int> ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.elements(), ba.elements());
  OrSet<int> ab_c = ab;
  ab_c.merge(c);
  OrSet<int> bc = b;
  bc.merge(c);
  OrSet<int> a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.elements(), a_bc.elements());
  OrSet<int> aa = a;
  aa.merge(a);
  EXPECT_EQ(aa.elements(), a.elements());
}

TEST_P(CrdtLaws, LwwRegisterMergeLaws) {
  sim::Rng rng(GetParam() ^ 0x9abc);
  auto random_lww = [&rng] {
    LwwRegister<int> r;
    for (int i = 0; i < 3; ++i) {
      r.set(static_cast<int>(rng.below(100)), rng.below(20),
            static_cast<ReplicaId>(rng.below(4)));
    }
    return r;
  };
  const auto a = random_lww();
  const auto b = random_lww();
  LwwRegister<int> ab = a;
  ab.merge(b);
  LwwRegister<int> ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.value(), ba.value());
  LwwRegister<int> aa = a;
  aa.merge(a);
  EXPECT_EQ(aa.value(), a.value());
}

TEST_P(CrdtLaws, MvRegisterConvergesPairwise) {
  sim::Rng rng(GetParam() ^ 0xdef0);
  MvRegister<int> a, b;
  for (int i = 0; i < 4; ++i) {
    if (rng.chance(0.5)) {
      a.set(static_cast<int>(rng.below(10)), 1);
    } else {
      b.set(static_cast<int>(rng.below(10)), 2);
    }
  }
  MvRegister<int> a2 = a, b2 = b;
  a2.merge(b);
  b2.merge(a);
  auto va = a2.values();
  auto vb = b2.values();
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_EQ(va, vb);
}

// --- Differential check against the node-based reference -------------------

constexpr int kDiffReplicas = 3;
constexpr int kDiffElements = 6;

/// Three replicas, each holding a G-Counter and an OR-Set in both
/// representations.
struct DiffReplicas {
  std::array<GCounter, kDiffReplicas> counters;
  std::array<reference::GCounter, kDiffReplicas> ref_counters;
  std::array<OrSet<int>, kDiffReplicas> sets;
  std::array<reference::OrSet<int>, kDiffReplicas> ref_sets;

  /// Replica ids that differ only in their high half, as two incarnations
  /// of one node do.
  static ReplicaId id(std::size_t replica) {
    return (ReplicaId{replica} << 32) | 1;
  }

  void add(std::size_t i, int element) {
    sets[i].add(element, id(i));
    ref_sets[i].add(element, id(i));
  }
  void remove(std::size_t i, int element) {
    sets[i].remove(element);
    ref_sets[i].remove(element);
  }
  void merge(std::size_t into, std::size_t from) {
    counters[into].merge(counters[from]);
    ref_counters[into].merge(ref_counters[from]);
    sets[into].merge(sets[from]);
    ref_sets[into].merge(ref_sets[from]);
  }

  /// Every observation the public API offers agrees across representations.
  [[nodiscard]] ::testing::AssertionResult agree() const {
    for (std::size_t i = 0; i < kDiffReplicas; ++i) {
      if (counters[i].value() != ref_counters[i].value()) {
        return ::testing::AssertionFailure()
               << "replica " << i << ": value " << counters[i].value()
               << " vs " << ref_counters[i].value();
      }
      if (sets[i].elements() != ref_sets[i].elements()) {
        return ::testing::AssertionFailure() << "replica " << i << ": elements";
      }
      if (sets[i].size() != ref_sets[i].elements().size()) {
        return ::testing::AssertionFailure() << "replica " << i << ": size";
      }
      for (int e = 0; e < kDiffElements; ++e) {
        if (sets[i].contains(e) != ref_sets[i].contains(e)) {
          return ::testing::AssertionFailure()
                 << "replica " << i << ": contains(" << e << ")";
        }
      }
      for (std::size_t j = 0; j < kDiffReplicas; ++j) {
        if ((counters[i] == counters[j]) !=
                (ref_counters[i] == ref_counters[j]) ||
            (sets[i] == sets[j]) != (ref_sets[i] == ref_sets[j])) {
          return ::testing::AssertionFailure()
                 << "replicas " << i << ", " << j << ": ==";
        }
      }
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_P(CrdtLaws, SortedVectorsMatchNodeBasedReference) {
  sim::Rng rng(GetParam() ^ 0x2468);
  DiffReplicas r;
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(kDiffReplicas));
    const auto other = static_cast<std::size_t>(
        (i + 1 + rng.below(kDiffReplicas - 1)) % kDiffReplicas);
    const int element = static_cast<int>(rng.below(kDiffElements));
    const std::uint64_t op = rng.below(100);
    if (op < 20) {
      const std::uint64_t by = rng.below(5);
      r.counters[i].increment(DiffReplicas::id(i), by);
      r.ref_counters[i].increment(DiffReplicas::id(i), by);
    } else if (op < 42) {
      r.add(i, element);
    } else if (op < 56) {
      r.remove(i, element);
    } else if (op < 70) {
      // Re-add after a merged remove: `other` removes an element it holds,
      // `i` merges that remove and then adds the element again.
      const std::set<int> present = r.ref_sets[other].elements();
      if (present.empty()) continue;
      const int victim = *std::next(
          present.begin(), static_cast<long>(rng.below(present.size())));
      r.remove(other, victim);
      ASSERT_TRUE(r.agree()) << "step " << step;
      r.merge(i, other);
      ASSERT_TRUE(r.agree()) << "step " << step;
      r.add(i, victim);
    } else if (op < 94) {
      r.merge(i, other);
    } else if (op < 97) {
      r.merge(i, i);  // self-merge: both sides alias the same state
    } else {
      // Diskless restart under the same id: only merged tag counters keep
      // the replica's next adds from reusing tags its peers already hold.
      r.counters[i] = {};
      r.ref_counters[i] = {};
      r.sets[i] = {};
      r.ref_sets[i] = {};
    }
    ASSERT_TRUE(r.agree()) << "step " << step << ", op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrdtLaws,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace riot::data
