// Figure 2 ("Fig. IV") — the verification view.
//
// The paper: "the verification process checks whether a given system (a
// facet of an IoT system model) satisfies a given correctness specification
// (resilience properties)". This bench quantifies the cost of exactly that
// process across the three engines:
//
//   CTL   — design-time exhaustive checking of AG(failed -> AF running)
//           over generated configuration models, sweeping state count;
//   LTL   — runtime monitors (formula progression), cost per event;
//   PCTL  — quantitative reachability on the component DTMC.
//
// Expected shape: CTL time grows ~linearly in |S|+|T| (fixpoint
// algorithms); LTL progression is microseconds per event and independent
// of system size — cheap enough for edge placement, which is the basis of
// the paper's runtime-verification-at-the-edge argument.
#include <chrono>

#include "bench_util.hpp"
#include "model/ctl.hpp"
#include "model/dtmc.hpp"
#include "model/ltl.hpp"
#include "sim/rng.hpp"

using namespace riot;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Generate a layered configuration model: each state is a fleet health
/// configuration; transitions are degrade/fail/recover events.
model::Kripke make_model(std::size_t states, sim::Rng& rng) {
  model::Kripke m;
  const auto running = m.prop("running");
  const auto failed = m.prop("failed");
  for (std::size_t i = 0; i < states; ++i) {
    if (rng.chance(0.2)) {
      m.add_state({failed});
    } else {
      m.add_state({running});
    }
  }
  for (std::size_t i = 0; i < states; ++i) {
    const int degree = 2 + static_cast<int>(rng.below(3));
    for (int j = 0; j < degree; ++j) {
      m.add_transition(static_cast<model::StateId>(i),
                       static_cast<model::StateId>(rng.below(states)));
    }
    // Failed states can always recover to state 0 (the healthy root).
  }
  m.set_initial(0);
  m.complete_with_self_loops();
  return m;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 2: verification of resilience properties",
      "CTL: AG(failed -> AF running) over generated configuration models.\n"
      "LTL: G(req -> F resp) progression over synthetic traces.\n"
      "PCTL: P[F failed], P[F<=k ok] on the component DTMC.");

  bench::BenchReport report("bench_fig2_verification");
  report.config("seed", 17.0);
  std::printf("CTL model checking (time vs model size):\n");
  bench::Table ctl_table(
      {"states", "transitions", "check_ms", "us_per_state", "holds"});
  ctl_table.tee_to(report);
  ctl_table.print_header();
  sim::Rng rng(17);
  for (const std::size_t states :
       {100u, 1'000u, 10'000u, 100'000u, 400'000u}) {
    auto m = make_model(states, rng);
    model::ctl::Checker checker(m);
    const auto property = model::ctl::ag(model::ctl::implies(
        model::ctl::prop("failed"),
        model::ctl::af(model::ctl::prop("running"))));
    const auto start = Clock::now();
    const bool holds = checker.holds(property);
    const double elapsed = ms_since(start);
    ctl_table.print_row(
        {bench::fmt_u(states), bench::fmt_u(m.transition_count()),
         bench::fmt(elapsed, 2),
         bench::fmt(elapsed * 1000.0 / static_cast<double>(states), 3),
         holds ? "yes" : "no"});
  }

  std::printf("\nLTL runtime monitoring (progression cost per event):\n");
  bench::Table ltl_table({"formula", "events", "total_ms", "ns_per_event",
                          "verdict"});
  ltl_table.tee_to(report);
  ltl_table.print_header();
  struct Case {
    const char* name;
    model::ltl::FormulaPtr formula;
  };
  const Case cases[] = {
      {"G(fresh)", model::ltl::always(model::ltl::prop("fresh"))},
      {"G(req->F resp)",
       model::ltl::always(model::ltl::implies(
           model::ltl::prop("req"),
           model::ltl::eventually(model::ltl::prop("resp"))))},
      {"(a U b) & G(c)",
       model::ltl::and_(
           model::ltl::until(model::ltl::prop("a"), model::ltl::prop("b")),
           model::ltl::always(model::ltl::prop("c")))},
  };
  sim::Rng trace_rng(23);
  for (const auto& test_case : cases) {
    model::ltl::Monitor monitor(test_case.formula);
    constexpr int kEvents = 1'000'000;
    const auto start = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      model::ltl::State state;
      if (trace_rng.chance(0.9)) state.insert("fresh");
      if (trace_rng.chance(0.1)) state.insert("req");
      if (trace_rng.chance(0.5)) state.insert("resp");
      state.insert("a");
      state.insert("c");
      monitor.step(state, sim::nanos(i));
      if (monitor.verdict() != model::ltl::Verdict::kInconclusive) {
        monitor.reset();
      }
    }
    const double elapsed = ms_since(start);
    ltl_table.print_row(
        {test_case.name, bench::fmt_u(kEvents), bench::fmt(elapsed, 1),
         bench::fmt(elapsed * 1e6 / kEvents, 1),
         std::string(to_string(monitor.verdict()))});
  }

  std::printf("\nPCTL quantitative checking on the component chain:\n");
  bench::Table pctl_table({"query", "value", "time_ms"});
  pctl_table.tee_to(report);
  pctl_table.print_header();
  const auto component = model::make_component_chain({});
  {
    const auto start = Clock::now();
    const auto probability =
        component.chain.reach_probability({component.failed});
    pctl_table.print_row({"P[F failed] from ok",
                          bench::fmt(probability[component.ok], 4),
                          bench::fmt(ms_since(start), 3)});
  }
  {
    const auto start = Clock::now();
    const auto probability =
        component.chain.bounded_reach_probability({component.failed}, 50);
    pctl_table.print_row({"P[F<=50 failed] from ok",
                          bench::fmt(probability[component.ok], 4),
                          bench::fmt(ms_since(start), 3)});
  }
  {
    const auto start = Clock::now();
    const auto pi = component.chain.steady_state(component.ok);
    pctl_table.print_row(
        {"steady-state availability",
         bench::fmt(pi[component.ok] + pi[component.degraded], 4),
         bench::fmt(ms_since(start), 3)});
  }
  {
    const auto start = Clock::now();
    const auto steps = component.chain.expected_steps_to({component.ok});
    pctl_table.print_row({"E[steps failed->ok]",
                          bench::fmt(steps[component.failed], 2),
                          bench::fmt(ms_since(start), 3)});
  }
  return report.write() ? 0 : 1;
}
