#include "model/ltl.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace riot::model::ltl {
namespace {

using Trace = std::vector<State>;
using Stamps = std::vector<sim::SimTime>;

State s() { return {}; }
State s(const char* a) { return {a}; }
State s(const char* a, const char* b) { return {a, b}; }

/// An untimed trace is stamped with each state's index.
Stamps index_stamps(const Trace& trace) {
  Stamps at;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    at.push_back(sim::nanos(static_cast<std::int64_t>(i)));
  }
  return at;
}

Verdict run_monitor(FormulaPtr f, const Trace& trace, const Stamps& at) {
  Monitor monitor(std::move(f));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (monitor.step(trace[i], at[i]) != Verdict::kInconclusive) {
      return monitor.verdict();
    }
  }
  return monitor.conclude();
}

Verdict run_monitor(FormulaPtr f, const Trace& trace) {
  return run_monitor(std::move(f), trace, index_stamps(trace));
}

TEST(LtlMonitor, PropImmediate) {
  EXPECT_EQ(run_monitor(prop("p"), {s("p")}), Verdict::kSatisfied);
  EXPECT_EQ(run_monitor(prop("p"), {s("q")}), Verdict::kViolated);
}

TEST(LtlMonitor, AlwaysViolatedOnFirstBreak) {
  Monitor m(always(prop("ok")));
  EXPECT_EQ(m.step(s("ok"), sim::nanos(0)), Verdict::kInconclusive);
  EXPECT_EQ(m.step(s("ok"), sim::nanos(1)), Verdict::kInconclusive);
  EXPECT_EQ(m.step(s(), sim::nanos(2)), Verdict::kViolated);
}

TEST(LtlMonitor, AlwaysSatisfiedAtConcludeIfNeverBroken) {
  EXPECT_EQ(run_monitor(always(prop("ok")), {s("ok"), s("ok")}),
            Verdict::kSatisfied);
}

TEST(LtlMonitor, EventuallySatisfiedOnOccurrence) {
  Monitor m(eventually(prop("goal")));
  EXPECT_EQ(m.step(s(), sim::nanos(0)), Verdict::kInconclusive);
  EXPECT_EQ(m.step(s("goal"), sim::nanos(1)), Verdict::kSatisfied);
}

TEST(LtlMonitor, EventuallyViolatedAtTraceEnd) {
  EXPECT_EQ(run_monitor(eventually(prop("goal")), {s(), s(), s()}),
            Verdict::kViolated);
}

TEST(LtlMonitor, NextChecksSecondState) {
  EXPECT_EQ(run_monitor(next(prop("p")), {s(), s("p")}),
            Verdict::kSatisfied);
  EXPECT_EQ(run_monitor(next(prop("p")), {s("p"), s()}),
            Verdict::kViolated);
  // Trace too short to discharge X.
  EXPECT_EQ(run_monitor(next(prop("p")), {s("p")}), Verdict::kViolated);
}

TEST(LtlMonitor, UntilHoldsThroughRelease) {
  EXPECT_EQ(run_monitor(until(prop("a"), prop("b")),
                        {s("a"), s("a"), s("b")}),
            Verdict::kSatisfied);
  // a stops holding before b arrives.
  EXPECT_EQ(run_monitor(until(prop("a"), prop("b")), {s("a"), s(), s("b")}),
            Verdict::kViolated);
  // b never arrives.
  EXPECT_EQ(run_monitor(until(prop("a"), prop("b")), {s("a"), s("a")}),
            Verdict::kViolated);
}

TEST(LtlMonitor, ReleaseDual) {
  // a R b: b must hold up to and including the step where a holds.
  EXPECT_EQ(run_monitor(release(prop("a"), prop("b")),
                        {s("b"), s("a", "b"), s()}),
            Verdict::kSatisfied);
  EXPECT_EQ(run_monitor(release(prop("a"), prop("b")), {s("b"), s()}),
            Verdict::kViolated);
  // a never happens but b holds throughout the finite trace: weak closure
  // accepts.
  EXPECT_EQ(run_monitor(release(prop("a"), prop("b")), {s("b"), s("b")}),
            Verdict::kSatisfied);
}

TEST(LtlMonitor, ResponsePattern) {
  // G(request -> F response) — the paper's "counteraction follows
  // violation" shape.
  const auto f = always(implies(prop("req"), eventually(prop("resp"))));
  EXPECT_EQ(run_monitor(f, {s("req"), s(), s("resp"), s()}),
            Verdict::kSatisfied);
  EXPECT_EQ(run_monitor(f, {s("req"), s(), s()}), Verdict::kViolated);
  EXPECT_EQ(run_monitor(f, {s(), s()}), Verdict::kSatisfied);
}

TEST(LtlMonitor, NegationNormalForm) {
  // !(F p) == G !p — violated as soon as p occurs.
  Monitor m(not_(eventually(prop("p"))));
  EXPECT_EQ(m.step(s(), sim::nanos(0)), Verdict::kInconclusive);
  EXPECT_EQ(m.step(s("p"), sim::nanos(1)), Verdict::kViolated);
}

TEST(LtlMonitor, VerdictSticksAfterDecision) {
  Monitor m(eventually(prop("p")));
  m.step(s("p"), sim::nanos(0));
  EXPECT_EQ(m.verdict(), Verdict::kSatisfied);
  // further input ignored
  EXPECT_EQ(m.step(s(), sim::nanos(1)), Verdict::kSatisfied);
}

TEST(LtlMonitor, ResetRestores) {
  Monitor m(always(prop("ok")));
  m.step(s(), sim::nanos(0));
  EXPECT_EQ(m.verdict(), Verdict::kViolated);
  m.reset();
  EXPECT_EQ(m.verdict(), Verdict::kInconclusive);
  EXPECT_EQ(m.step(s("ok"), sim::nanos(1)), Verdict::kInconclusive);
  EXPECT_EQ(m.steps(), 1u);
}

TEST(LtlMonitor, ResidualStaysBoundedForInvariants) {
  Monitor m(always(implies(prop("a"), eventually(prop("b")))));
  std::size_t max_size = 0;
  for (int i = 0; i < 1000; ++i) {
    m.step(i % 3 == 0 ? s("a") : s("b"), sim::nanos(i));
    max_size = std::max(max_size, formula_size(m.residual()));
  }
  EXPECT_LT(max_size, 50u);
}

TEST(LtlFormula, ToStringRoundTrips) {
  const auto f = until(prop("a"), always(prop("b")));
  EXPECT_EQ(f->to_string(), "(a U G(b))");
  EXPECT_EQ(truth()->to_string(), "true");
  EXPECT_EQ(not_(prop("x"))->to_string(), "!x");
}

TEST(LtlFormula, SimplificationCollapsesConstants) {
  EXPECT_EQ(and_(truth(), prop("p"))->to_string(), "p");
  EXPECT_EQ(and_(falsity(), prop("p"))->to_string(), "false");
  EXPECT_EQ(or_(truth(), prop("p"))->to_string(), "true");
  EXPECT_EQ(or_(falsity(), prop("p"))->to_string(), "p");
  EXPECT_EQ(or_(prop("p"), prop("p"))->to_string(), "p");
  EXPECT_EQ(not_(not_(prop("p")))->to_string(), "p");
}

// --- Bounded operators (metric temporal logic) ---------------------------------

TEST(MtlMonitor, BoundedEventuallySatisfiedInTime) {
  Monitor monitor(eventually_within(sim::seconds(3), prop("resp")));
  EXPECT_EQ(monitor.step(s(), sim::seconds(0)), Verdict::kInconclusive);
  EXPECT_EQ(monitor.step(s(), sim::seconds(1)), Verdict::kInconclusive);
  EXPECT_EQ(monitor.step(s("resp"), sim::seconds(2)), Verdict::kSatisfied);
}

TEST(MtlMonitor, BoundedEventuallyViolatedAfterDeadline) {
  Monitor monitor(eventually_within(sim::seconds(3), prop("resp")));
  monitor.step(s(), sim::seconds(0));  // arms deadline at t=3s
  monitor.step(s(), sim::seconds(2));
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  EXPECT_EQ(monitor.step(s("resp"), sim::seconds(4)), Verdict::kViolated);
}

TEST(MtlMonitor, DeadlineIsInclusive) {
  Monitor monitor(eventually_within(sim::seconds(3), prop("resp")));
  monitor.step(s(), sim::seconds(0));
  // A state at exactly the deadline still counts.
  EXPECT_EQ(monitor.step(s("resp"), sim::seconds(3)), Verdict::kSatisfied);
}

TEST(MtlMonitor, AdvanceTimeExpiresWithoutEvents) {
  Monitor monitor(eventually_within(sim::seconds(3), prop("resp")));
  monitor.step(s(), sim::seconds(0));
  EXPECT_EQ(monitor.advance_time(sim::seconds(2)), Verdict::kInconclusive);
  EXPECT_EQ(monitor.advance_time(sim::seconds(4)), Verdict::kViolated);
}

TEST(MtlMonitor, BoundedAlwaysHoldsThroughWindow) {
  Monitor monitor(always_within(sim::seconds(2), prop("calm")));
  monitor.step(s("calm"), sim::seconds(0));
  monitor.step(s("calm"), sim::seconds(1));
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  // Past the window: obligation discharged.
  EXPECT_EQ(monitor.advance_time(sim::seconds(3)), Verdict::kSatisfied);
}

TEST(MtlMonitor, BoundedAlwaysViolatedInsideWindow) {
  Monitor monitor(always_within(sim::seconds(2), prop("calm")));
  monitor.step(s("calm"), sim::seconds(0));
  EXPECT_EQ(monitor.step(s(), sim::seconds(1)), Verdict::kViolated);
}

TEST(MtlMonitor, BoundedUntil) {
  {
    Monitor monitor(
        until_within(sim::seconds(5), prop("hold"), prop("done")));
    monitor.step(s("hold"), sim::seconds(0));
    monitor.step(s("hold"), sim::seconds(2));
    EXPECT_EQ(monitor.step(s("done"), sim::seconds(4)),
              Verdict::kSatisfied);
  }
  {
    Monitor monitor(
        until_within(sim::seconds(5), prop("hold"), prop("done")));
    monitor.step(s("hold"), sim::seconds(0));
    // hold breaks before done arrives.
    EXPECT_EQ(monitor.step(s(), sim::seconds(1)), Verdict::kViolated);
  }
  {
    Monitor monitor(
        until_within(sim::seconds(5), prop("hold"), prop("done")));
    monitor.step(s("hold"), sim::seconds(0));
    // done never arrives within the bound.
    EXPECT_EQ(monitor.step(s("hold"), sim::seconds(6)),
              Verdict::kViolated);
  }
}

TEST(LtlBoundedMonitor, UntilPastDeadlineIsViolated) {
  // done arrives, but after the 5 s bound: too late, as for F[<=5s] done
  // and as when the clock alone passes the deadline.
  Monitor monitor(until_within(sim::seconds(5), prop("hold"), prop("done")));
  monitor.step(s("hold"), sim::seconds(0));
  EXPECT_EQ(monitor.step(s("done"), sim::seconds(6)), Verdict::kViolated);

  Monitor expired(until_within(sim::seconds(5), prop("hold"), prop("done")));
  expired.step(s("hold"), sim::seconds(0));
  EXPECT_EQ(expired.advance_time(sim::seconds(6)), Verdict::kViolated);

  Monitor eventual(eventually_within(sim::seconds(5), prop("done")));
  eventual.step(s("hold"), sim::seconds(0));
  EXPECT_EQ(eventual.step(s("done"), sim::seconds(6)), Verdict::kViolated);
}

TEST(MtlMonitor, ResponsePatternArmsPerRequest) {
  // G(req -> F[<=3s] resp): every request arms its own deadline.
  Monitor monitor(always(
      implies(prop("req"), eventually_within(sim::seconds(3), prop("resp")))));
  monitor.step(s("req"), sim::seconds(0));   // deadline 3s
  monitor.step(s(), sim::seconds(1));
  monitor.step(s("resp"), sim::seconds(2));  // first request served
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  monitor.step(s("req"), sim::seconds(10));  // deadline 13s
  monitor.step(s(), sim::seconds(12));
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  EXPECT_EQ(monitor.step(s(), sim::seconds(14)), Verdict::kViolated);
}

TEST(MtlMonitor, ConcurrentObligationsTrackedIndependently) {
  Monitor monitor(always(
      implies(prop("req"), eventually_within(sim::seconds(5), prop("resp")))));
  monitor.step(s("req"), sim::seconds(0));  // deadline 5
  monitor.step(s("req"), sim::seconds(2));  // deadline 7
  monitor.step(s("resp"), sim::seconds(4)); // discharges both
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  EXPECT_EQ(monitor.advance_time(sim::seconds(10)), Verdict::kInconclusive);
}

TEST(MtlMonitor, SatisfiedVerdictSticks) {
  Monitor monitor(eventually_within(sim::seconds(1), prop("x")));
  monitor.step(s("x"), sim::seconds(0));
  EXPECT_EQ(monitor.verdict(), Verdict::kSatisfied);
  EXPECT_EQ(monitor.step(s(), sim::seconds(5)), Verdict::kSatisfied);
}

TEST(MtlMonitor, ResetRearms) {
  Monitor monitor(eventually_within(sim::seconds(1), prop("x")));
  monitor.step(s(), sim::seconds(0));
  monitor.advance_time(sim::seconds(2));
  EXPECT_EQ(monitor.verdict(), Verdict::kViolated);
  monitor.reset();
  EXPECT_EQ(monitor.step(s("x"), sim::seconds(10)), Verdict::kSatisfied);
}

TEST(MtlFormula, NegationNormalForm) {
  // !F[<=d]p == G[<=d]!p
  const auto f = not_(eventually_within(sim::seconds(1), prop("p")));
  EXPECT_EQ(f->op, Op::kAlways);
  EXPECT_EQ(f->bound, sim::seconds(1));
  EXPECT_EQ(f->left->op, Op::kNot);
  // Negating a bounded until is unsupported by design.
  EXPECT_THROW(not_(until_within(sim::seconds(1), prop("a"), prop("b"))),
               std::invalid_argument);
}

TEST(MtlFormula, ToString) {
  const auto f = always(implies(
      prop("req"), eventually_within(sim::millis(1500), prop("resp"))));
  EXPECT_EQ(f->to_string(), "G((!req | F[<=1500.000ms](resp)))");
}

TEST(MtlMonitor, FreshnessIdiom) {
  // The MAPE freshness requirement with a deadline: G(stale -> F[<=2s]
  // fresh) — staleness must be repaired within 2 seconds.
  Monitor monitor(always(
      implies(prop("stale"), eventually_within(sim::seconds(2), prop("fresh")))));
  monitor.step(s("fresh"), sim::millis(500));
  monitor.step(s("stale"), sim::millis(1000));
  monitor.step(s("stale"), sim::millis(1500));
  monitor.step(s("fresh"), sim::millis(2500));  // repaired in 1.5s
  EXPECT_EQ(monitor.verdict(), Verdict::kInconclusive);
  monitor.step(s("stale"), sim::seconds(10));
  EXPECT_EQ(monitor.advance_time(sim::seconds(13)), Verdict::kViolated);
}

// --- Brute-force cross-validation ---------------------------------------------
//
// Reference semantics of LTL over finite timestamped traces with *weak
// closure*, the semantics the progression monitor implements: on the empty
// suffix, invariant obligations (G, R) hold vacuously and everything else
// fails. This matters only for X at the final position: X(G f) concluded at
// trace end is satisfied, because the G obligation applies to an empty
// suffix. A bound on F, G or U at position i is measured from that
// position's own stamp: the operator looks only at positions stamped no
// later than at[i] + bound.

bool holds(const FormulaPtr& f, const Trace& trace, const Stamps& at,
           std::size_t i) {
  if (i >= trace.size()) {
    // Empty suffix: weak closure.
    switch (f->op) {
      case Op::kTrue:
      case Op::kAlways:
      case Op::kRelease:
        return true;
      case Op::kAnd:
        return holds(f->left, trace, at, i) && holds(f->right, trace, at, i);
      case Op::kOr:
        return holds(f->left, trace, at, i) || holds(f->right, trace, at, i);
      default:
        return false;
    }
  }
  // One past the last position a temporal operator at i looks at.
  std::size_t end = trace.size();
  if (f->bound) {
    end = i;
    while (end < trace.size() && at[end] <= at[i] + *f->bound) ++end;
  }
  switch (f->op) {
    case Op::kTrue:
      return true;
    case Op::kFalse:
      return false;
    case Op::kProp:
      return trace[i].contains(f->prop);
    case Op::kNot:
      return !trace[i].contains(f->left->prop);
    case Op::kAnd:
      return holds(f->left, trace, at, i) && holds(f->right, trace, at, i);
    case Op::kOr:
      return holds(f->left, trace, at, i) || holds(f->right, trace, at, i);
    case Op::kNext:
      return holds(f->left, trace, at, i + 1);
    case Op::kUntil:
      for (std::size_t j = i; j < end; ++j) {
        if (holds(f->right, trace, at, j)) return true;
        if (!holds(f->left, trace, at, j)) return false;
      }
      return false;
    case Op::kRelease:
      for (std::size_t j = i; j < end; ++j) {
        if (!holds(f->right, trace, at, j)) return false;
        if (holds(f->left, trace, at, j)) return true;
      }
      return true;  // b held to the end
    case Op::kEventually:
      for (std::size_t j = i; j < end; ++j) {
        if (holds(f->left, trace, at, j)) return true;
      }
      return false;
    case Op::kAlways:
      for (std::size_t j = i; j < end; ++j) {
        if (!holds(f->left, trace, at, j)) return false;
      }
      return true;
  }
  return false;
}

bool has_bounded_until(const FormulaPtr& f) {
  return f != nullptr && ((f->op == Op::kUntil && f->bound) ||
                          has_bounded_until(f->left) ||
                          has_bounded_until(f->right));
}

/// A random formula over p, q and r. With `bounded`, half of the non-atomic
/// draws are F, G or U with a bound of 0–3 s over random operands; without
/// it, the draws are unbounded LTL only.
FormulaPtr random_formula(sim::Rng& rng, int depth, bool bounded = false) {
  const char* props[] = {"p", "q", "r"};
  if (depth == 0 || rng.chance(0.3)) {
    return prop(props[rng.below(3)]);
  }
  const auto sub = [&] { return random_formula(rng, depth - 1, bounded); };
  if (bounded && rng.chance(0.5)) {
    const sim::SimTime bound =
        sim::millis(500 * static_cast<std::int64_t>(rng.below(7)));
    switch (rng.below(3)) {
      case 0:
        return eventually_within(bound, sub());
      case 1:
        return always_within(bound, sub());
      default:
        return until_within(bound, sub(), sub());
    }
  }
  switch (rng.below(8)) {
    case 0: {
      // A bounded U has no bounded dual, so not_ rejects it.
      auto operand = sub();
      return has_bounded_until(operand) ? operand : not_(operand);
    }
    case 1:
      return and_(sub(), sub());
    case 2:
      return or_(sub(), sub());
    case 3:
      return next(sub());
    case 4:
      return until(sub(), sub());
    case 5:
      return release(sub(), sub());
    case 6:
      return eventually(sub());
    default:
      return always(sub());
  }
}

Trace random_trace(sim::Rng& rng, std::size_t length) {
  Trace trace;
  for (std::size_t i = 0; i < length; ++i) {
    State state;
    if (rng.chance(0.5)) state.insert("p");
    if (rng.chance(0.5)) state.insert("q");
    if (rng.chance(0.3)) state.insert("r");
    trace.push_back(std::move(state));
  }
  return trace;
}

/// Stamps rising by 0–2 s per state, in 500 ms steps so that states often
/// fall exactly on a deadline (which is inclusive).
Stamps random_stamps(sim::Rng& rng, std::size_t length) {
  Stamps at;
  sim::SimTime t = sim::kSimTimeZero;
  for (std::size_t i = 0; i < length; ++i) {
    at.push_back(t);
    t += sim::millis(500 * static_cast<std::int64_t>(rng.below(5)));
  }
  return at;
}

class LtlVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LtlVsBruteForce, MonitorAgreesWithDirectSemantics) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const auto f = random_formula(rng, 3);
    const auto trace = random_trace(rng, 1 + rng.below(8));
    const Verdict verdict = run_monitor(f, trace);
    const bool expected = holds(f, trace, index_stamps(trace), 0);
    EXPECT_EQ(verdict == Verdict::kSatisfied, expected)
        << "formula: " << f->to_string() << " trace length "
        << trace.size() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

class LtlBoundedVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LtlBoundedVsBruteForce, MonitorAgreesWithDirectSemantics) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto f = random_formula(rng, 3, /*bounded=*/true);
    const auto trace = random_trace(rng, 1 + rng.below(8));
    const auto at = random_stamps(rng, trace.size());
    const Verdict verdict = run_monitor(f, trace, at);
    EXPECT_EQ(verdict == Verdict::kSatisfied, holds(f, trace, at, 0))
        << "formula: " << f->to_string() << " trace length "
        << trace.size() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlBoundedVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace riot::model::ltl
