#include "model/ltl.hpp"

#include <stdexcept>

namespace riot::model::ltl {

namespace {

FormulaPtr make(Op op, std::string prop_name, FormulaPtr left,
                FormulaPtr right,
                std::optional<sim::SimTime> bound = std::nullopt) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->prop = std::move(prop_name);
  f->left = std::move(left);
  f->right = std::move(right);
  f->bound = bound;
  return f;
}

bool is_true(const FormulaPtr& f) { return f->op == Op::kTrue; }
bool is_false(const FormulaPtr& f) { return f->op == Op::kFalse; }

/// Structural equality — used by the simplifier to collapse idempotent
/// conjunctions/disjunctions and keep residuals small. Two armings of one
/// bounded operator differ in their deadlines and stay two obligations.
bool equal(const FormulaPtr& a, const FormulaPtr& b) {
  if (a.get() == b.get()) return true;
  if (a->op != b->op || a->prop != b->prop || a->bound != b->bound ||
      a->deadline != b->deadline) {
    return false;
  }
  const bool left_ok = (a->left == nullptr) == (b->left == nullptr) &&
                       (a->left == nullptr || equal(a->left, b->left));
  if (!left_ok) return false;
  return (a->right == nullptr) == (b->right == nullptr) &&
         (a->right == nullptr || equal(a->right, b->right));
}

/// Copy a bounded node, arming its absolute deadline.
FormulaPtr armed(const Formula& f, sim::SimTime now) {
  auto copy = std::make_shared<Formula>(f);
  copy->deadline = now + *f.bound;
  return copy;
}

/// Once the clock passes its deadline a bounded node is decided: G held,
/// F and U failed.
bool expired(const Formula& f, sim::SimTime now) {
  return f.deadline && now > *f.deadline;
}
FormulaPtr expired_value(const Formula& f) {
  return f.op == Op::kAlways ? truth() : falsity();
}

/// Resolve the armed obligations whose deadline has passed. They sit only
/// under and/or: every other node's operands are still unprogressed.
FormulaPtr expire(const FormulaPtr& f, sim::SimTime now) {
  switch (f->op) {
    case Op::kAnd:
      return and_(expire(f->left, now), expire(f->right, now));
    case Op::kOr:
      return or_(expire(f->left, now), expire(f->right, now));
    default:
      return expired(*f, now) ? expired_value(*f) : f;
  }
}

}  // namespace

FormulaPtr truth() {
  static const FormulaPtr t = make(Op::kTrue, {}, nullptr, nullptr);
  return t;
}
FormulaPtr falsity() {
  static const FormulaPtr f = make(Op::kFalse, {}, nullptr, nullptr);
  return f;
}
FormulaPtr prop(std::string name) {
  return make(Op::kProp, std::move(name), nullptr, nullptr);
}

/// Negation is pushed to the atoms (negation normal form) so that monitor
/// residuals contain kNot only directly above propositions — this keeps
/// both progression and finite-trace closure simple and sound. F[<=d] and
/// G[<=d] are each other's duals; a bounded U has no bounded dual here.
FormulaPtr not_(FormulaPtr f) {
  switch (f->op) {
    case Op::kTrue:
      return falsity();
    case Op::kFalse:
      return truth();
    case Op::kProp:
      return make(Op::kNot, {}, std::move(f), nullptr);
    case Op::kNot:
      return f->left;  // double negation
    case Op::kAnd:
      return or_(not_(f->left), not_(f->right));
    case Op::kOr:
      return and_(not_(f->left), not_(f->right));
    case Op::kNext:
      return next(not_(f->left));
    case Op::kUntil:
      if (f->bound) {
        throw std::invalid_argument(
            "ltl::not_: negation over U[<=d] is not supported; rewrite the "
            "property in negation normal form");
      }
      return release(not_(f->left), not_(f->right));
    case Op::kRelease:
      return until(not_(f->left), not_(f->right));
    case Op::kEventually:
      return make(Op::kAlways, {}, not_(f->left), nullptr, f->bound);
    case Op::kAlways:
      return make(Op::kEventually, {}, not_(f->left), nullptr, f->bound);
  }
  return falsity();
}

FormulaPtr and_(FormulaPtr a, FormulaPtr b) {
  if (is_false(a) || is_false(b)) return falsity();
  if (is_true(a)) return b;
  if (is_true(b)) return a;
  if (equal(a, b)) return a;
  return make(Op::kAnd, {}, std::move(a), std::move(b));
}

FormulaPtr or_(FormulaPtr a, FormulaPtr b) {
  if (is_true(a) || is_true(b)) return truth();
  if (is_false(a)) return b;
  if (is_false(b)) return a;
  if (equal(a, b)) return a;
  return make(Op::kOr, {}, std::move(a), std::move(b));
}

FormulaPtr implies(FormulaPtr a, FormulaPtr b) {
  return or_(not_(std::move(a)), std::move(b));
}
FormulaPtr next(FormulaPtr f) {
  return make(Op::kNext, {}, std::move(f), nullptr);
}
FormulaPtr until(FormulaPtr a, FormulaPtr b) {
  return make(Op::kUntil, {}, std::move(a), std::move(b));
}
FormulaPtr release(FormulaPtr a, FormulaPtr b) {
  return make(Op::kRelease, {}, std::move(a), std::move(b));
}
FormulaPtr eventually(FormulaPtr f) {
  return make(Op::kEventually, {}, std::move(f), nullptr);
}
FormulaPtr always(FormulaPtr f) {
  return make(Op::kAlways, {}, std::move(f), nullptr);
}
FormulaPtr eventually_within(sim::SimTime bound, FormulaPtr f) {
  return make(Op::kEventually, {}, std::move(f), nullptr, bound);
}
FormulaPtr always_within(sim::SimTime bound, FormulaPtr f) {
  return make(Op::kAlways, {}, std::move(f), nullptr, bound);
}
FormulaPtr until_within(sim::SimTime bound, FormulaPtr a, FormulaPtr b) {
  return make(Op::kUntil, {}, std::move(a), std::move(b), bound);
}

std::string Formula::to_string() const {
  const std::string b =
      bound ? "[<=" + sim::format_time(*bound) + "]" : std::string();
  switch (op) {
    case Op::kTrue:
      return "true";
    case Op::kFalse:
      return "false";
    case Op::kProp:
      return prop;
    case Op::kNot:
      return "!" + left->to_string();
    case Op::kAnd:
      return "(" + left->to_string() + " & " + right->to_string() + ")";
    case Op::kOr:
      return "(" + left->to_string() + " | " + right->to_string() + ")";
    case Op::kNext:
      return "X(" + left->to_string() + ")";
    case Op::kUntil:
      return "(" + left->to_string() + " U" + b + " " + right->to_string() +
             ")";
    case Op::kRelease:
      return "(" + left->to_string() + " R " + right->to_string() + ")";
    case Op::kEventually:
      return "F" + b + "(" + left->to_string() + ")";
    case Op::kAlways:
      return "G" + b + "(" + left->to_string() + ")";
  }
  return "?";
}

FormulaPtr progress(const FormulaPtr& f, const State& state,
                    sim::SimTime now) {
  if (f->bound) {
    if (!f->deadline) return progress(armed(*f, now), state, now);
    if (expired(*f, now)) return expired_value(*f);
  }
  switch (f->op) {
    case Op::kTrue:
    case Op::kFalse:
      return f;
    case Op::kProp:
      return state.contains(f->prop) ? truth() : falsity();
    case Op::kNot:  // NNF: operand is a proposition
      return state.contains(f->left->prop) ? falsity() : truth();
    case Op::kAnd:
      return and_(progress(f->left, state, now),
                  progress(f->right, state, now));
    case Op::kOr:
      return or_(progress(f->left, state, now),
                 progress(f->right, state, now));
    case Op::kNext:
      return f->left;
    case Op::kUntil:
      // f U g  ≡  g | (f & X(f U g))
      return or_(progress(f->right, state, now),
                 and_(progress(f->left, state, now), f));
    case Op::kRelease:
      // f R g  ≡  g & (f | X(f R g))
      return and_(progress(f->right, state, now),
                  or_(progress(f->left, state, now), f));
    case Op::kEventually:
      return or_(progress(f->left, state, now), f);
    case Op::kAlways:
      return and_(progress(f->left, state, now), f);
  }
  return falsity();
}

std::size_t formula_size(const FormulaPtr& f) {
  if (!f) return 0;
  return 1 + formula_size(f->left) + formula_size(f->right);
}

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::kInconclusive:
      return "inconclusive";
    case Verdict::kSatisfied:
      return "satisfied";
    case Verdict::kViolated:
      return "violated";
  }
  return "?";
}

Verdict Monitor::step(const State& state, sim::SimTime now) {
  if (verdict_ != Verdict::kInconclusive) return verdict_;
  ++steps_;
  residual_ = progress(residual_, state, now);
  return settle();
}

Verdict Monitor::advance_time(sim::SimTime now) {
  if (verdict_ != Verdict::kInconclusive) return verdict_;
  residual_ = expire(residual_, now);
  return settle();
}

Verdict Monitor::settle() {
  if (is_true(residual_)) verdict_ = Verdict::kSatisfied;
  if (is_false(residual_)) verdict_ = Verdict::kViolated;
  return verdict_;
}

namespace {
/// Finite-trace closure of a residual: obligations on states that will
/// never come (props, X, U, F) fail; invariants that were never broken
/// (G, R) hold.
bool finite_eval(const FormulaPtr& f) {
  switch (f->op) {
    case Op::kTrue:
      return true;
    case Op::kFalse:
    case Op::kProp:
    case Op::kNot:
    case Op::kNext:
    case Op::kUntil:
    case Op::kEventually:
      return false;
    case Op::kAnd:
      return finite_eval(f->left) && finite_eval(f->right);
    case Op::kOr:
      return finite_eval(f->left) || finite_eval(f->right);
    case Op::kRelease:
    case Op::kAlways:
      return true;
  }
  return false;
}
}  // namespace

Verdict Monitor::conclude() const {
  if (verdict_ != Verdict::kInconclusive) return verdict_;
  return finite_eval(residual_) ? Verdict::kSatisfied : Verdict::kViolated;
}

void Monitor::reset() {
  residual_ = initial_;
  verdict_ = Verdict::kInconclusive;
  steps_ = 0;
}

}  // namespace riot::model::ltl
