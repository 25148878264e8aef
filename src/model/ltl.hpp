// LTL runtime monitors by formula progression, with optional deadlines.
//
// Design-time checking (ctl.hpp) cannot cover "unforeseen or emergent
// behaviors ... at the system's runtime" (Section VII). Runtime
// verification closes the gap: a Monitor consumes the system's event trace
// one timestamped state at a time and rewrites its LTL formula by
// *progression* (Bauer/Leucker/Schallhart-style three-valued semantics):
//
//   prog(p, σ)      = σ(p)
//   prog(X f, σ)    = f
//   prog(f U g, σ)  = prog(g,σ) | (prog(f,σ) & f U g)
//   prog(G f, σ)    = prog(f,σ) & G f
//   prog(F f, σ)    = prog(f,σ) | F f
//
// IoT resilience requirements usually carry deadlines: "every request is
// answered within 3 seconds", "data is never stale for longer than the
// freshness bound". So F, G and U take an optional time bound:
//
//   F[<=d] f   — f holds at some state stamped <= t_arm + d
//   G[<=d] f   — f holds at every state stamped <= t_arm + d
//   f U[<=d] g — g within d, f holding until then
//
// where t_arm is the time the obligation is first progressed (e.g. each
// time `G(req -> F[<=d] resp)` sees a request). A bounded node then
// carries its absolute deadline and progresses exactly like the unbounded
// one until the clock passes that deadline; from then on F and U have
// failed and G has held. A missed deadline thus becomes a definitive
// verdict at runtime instead of an inconclusive residual, which is what
// the MAPE analyzer needs to trigger counteractions promptly.
//
// The verdict is kSatisfied/kViolated as soon as the residual formula
// collapses to true/false, kInconclusive otherwise. Progression is O(|φ|)
// per event, cheap enough to run on edge components — which is precisely
// why the MAPE analyzer (src/adapt) embeds these monitors.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace riot::model::ltl {

enum class Op {
  kTrue,
  kFalse,
  kProp,
  kNot,
  kAnd,
  kOr,
  kNext,
  kUntil,
  kRelease,
  kEventually,
  kAlways,
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

struct Formula {
  Op op;
  std::string prop;
  FormulaPtr left;
  FormulaPtr right;
  /// F, G and U only; none means unbounded.
  std::optional<sim::SimTime> bound;
  /// Absolute deadline of a bounded node, set when it is first progressed.
  std::optional<sim::SimTime> deadline;

  [[nodiscard]] std::string to_string() const;
};

FormulaPtr truth();
FormulaPtr falsity();
FormulaPtr prop(std::string name);
FormulaPtr not_(FormulaPtr f);
FormulaPtr and_(FormulaPtr a, FormulaPtr b);
FormulaPtr or_(FormulaPtr a, FormulaPtr b);
FormulaPtr implies(FormulaPtr a, FormulaPtr b);
FormulaPtr next(FormulaPtr f);
FormulaPtr until(FormulaPtr a, FormulaPtr b);
FormulaPtr release(FormulaPtr a, FormulaPtr b);
FormulaPtr eventually(FormulaPtr f);
FormulaPtr always(FormulaPtr f);
FormulaPtr eventually_within(sim::SimTime bound, FormulaPtr f);
FormulaPtr always_within(sim::SimTime bound, FormulaPtr f);
FormulaPtr until_within(sim::SimTime bound, FormulaPtr a, FormulaPtr b);

/// The set of atomic propositions true in one trace state.
using State = std::set<std::string>;

/// One progression step: rewrite `f` against `state` observed at `now`,
/// with boolean simplification.
FormulaPtr progress(const FormulaPtr& f, const State& state,
                    sim::SimTime now);

/// Structural formula size (AST nodes) — monitors guard against residual
/// blow-up with it.
std::size_t formula_size(const FormulaPtr& f);

enum class Verdict { kInconclusive, kSatisfied, kViolated };

std::string_view to_string(Verdict v);

class Monitor {
 public:
  explicit Monitor(FormulaPtr formula)
      : initial_(formula), residual_(std::move(formula)) {}

  /// Feed the next trace state, observed at `now` (non-decreasing from
  /// step to step; an untimed trace passes each state's index); returns
  /// the (possibly final) verdict.
  Verdict step(const State& state, sim::SimTime now);

  /// Advance the clock without an observation: a bounded obligation whose
  /// deadline has passed resolves now — a missed F[<=d] becomes kViolated
  /// as soon as the clock passes the deadline, not at the next state.
  Verdict advance_time(sim::SimTime now);

  /// End-of-trace evaluation with finite-trace semantics: an undischarged
  /// eventually/until is a violation, an undischarged always is satisfied
  /// (weak closure of the residual).
  [[nodiscard]] Verdict conclude() const;

  [[nodiscard]] Verdict verdict() const { return verdict_; }
  [[nodiscard]] const FormulaPtr& residual() const { return residual_; }
  [[nodiscard]] std::size_t steps() const { return steps_; }

  /// Reset to the initial formula (monitor reuse across MAPE windows);
  /// bounded operators re-arm on the next step.
  void reset();

 private:
  Verdict settle();

  FormulaPtr initial_;
  FormulaPtr residual_;
  Verdict verdict_ = Verdict::kInconclusive;
  std::size_t steps_ = 0;
};

}  // namespace riot::model::ltl
