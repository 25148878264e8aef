#include "adapt/mape.hpp"

namespace riot::adapt {

// --- TelemetrySource --------------------------------------------------------

TelemetrySource::TelemetrySource(net::Network& network,
                                 net::NodeId loop_host, sim::SimTime period)
    : net::Node(network), loop_host_(loop_host), period_(period) {
  set_component("mape");
}

void TelemetrySource::add_probe(std::string key, ProbeFn fn) {
  probes_.emplace_back(std::move(key), std::move(fn));
}

void TelemetrySource::on_start() {
  every(period_, [this] { sample_and_send(); });
}

void TelemetrySource::on_recover() {
  every(period_, [this] { sample_and_send(); });
}

void TelemetrySource::sample_and_send() {
  TelemetryReport report;
  report.sampled_at = now();
  report.entries.reserve(probes_.size());
  for (const auto& [key, fn] : probes_) {
    report.entries.emplace_back(key, fn());
  }
  send(loop_host_, std::move(report));
}

// --- Effector ---------------------------------------------------------------

Effector::Effector(net::Network& network, Handler handler)
    : net::Node(network),
      handler_(std::move(handler)),
      executed_total_(network.metrics()
                          .counter_family("riot_mape_executed_total",
                                          "action commands applied by "
                                          "effectors")
                          .with({})) {
  set_component("mape");
  on<ActionCommand>([this](net::NodeId /*from*/, const ActionCommand& cmd) {
    ++executed_;
    executed_total_.increment();
    if (handler_) handler_(cmd.action);
  });
}

// --- MapeLoop ---------------------------------------------------------------

MapeLoop::MapeLoop(net::Network& network, sim::SimTime period)
    : net::Node(network),
      period_(period),
      iterations_total_(network.metrics()
                            .counter_family("riot_mape_iterations_total",
                                            "loop iterations run")
                            .with({})),
      violations_total_(network.metrics()
                            .counter_family("riot_mape_violations_total",
                                            "violations raised by analyzers")
                            .with({})),
      actions_total_(network.metrics()
                         .counter_family("riot_mape_actions_total",
                                         "actions issued by planners")
                         .with({})) {
  set_component("mape");
  on<TelemetryReport>(
      [this](net::NodeId from, const TelemetryReport& report) {
        for (const auto& [key, value] : report.entries) {
          knowledge_.observe(
              key, Observation{.value = value,
                               .sampled_at = report.sampled_at,
                               .received_at = now(),
                               .uncertainty = {
                                   model::UncertaintyLocation::kMonitoring,
                                   model::UncertaintyLevel::kKnownUnknown,
                                   model::UncertaintyNature::kEpistemic}});
        }
        (void)from;
      });
}

void MapeLoop::add_analyzer(std::string name, AnalyzerFn fn) {
  analyzers_.emplace_back(std::move(name), std::move(fn));
}

void MapeLoop::add_ltl_analyzer(
    std::string name, model::ltl::FormulaPtr formula,
    std::function<model::ltl::State(const KnowledgeBase&)> extract_state) {
  ltl_analyzers_.push_back(LtlAnalyzer{std::move(name),
                                       model::ltl::Monitor(std::move(formula)),
                                       std::move(extract_state)});
}

void MapeLoop::route_component(const std::string& component,
                               net::NodeId effector) {
  action_routes_[component] = effector;
}

void MapeLoop::on_start() {
  every(period_, [this] { iterate(); });
}

void MapeLoop::on_recover() {
  // A restarted loop host has an empty model@runtime; telemetry refills it.
  knowledge_.clear();
  for (auto& analyzer : ltl_analyzers_) analyzer.monitor.reset();
  every(period_, [this] { iterate(); });
}

void MapeLoop::iterate() {
  ++iterations_;
  iterations_total_.increment();
  last_analysis_at_ = now();
  // Analyze.
  std::vector<Violation> violations;
  for (const auto& [name, fn] : analyzers_) {
    if (auto v = fn(knowledge_)) violations.push_back(std::move(*v));
  }
  for (auto& analyzer : ltl_analyzers_) {
    // A violated monitor's residual is the constant false; the obligation
    // that failed is the residual it stepped from.
    const model::ltl::FormulaPtr obligation = analyzer.monitor.residual();
    const auto verdict =
        analyzer.monitor.step(analyzer.extract(knowledge_), now());
    if (verdict == model::ltl::Verdict::kViolated) {
      violations.push_back(Violation{
          analyzer.name, 1.0,
          "LTL monitor violated: " + obligation->to_string()});
      analyzer.monitor.reset();
    } else if (verdict == model::ltl::Verdict::kSatisfied) {
      analyzer.monitor.reset();  // keep guarding
    }
  }
  last_violations_ = violations;
  violations_raised_ += violations.size();
  violations_total_.increment(violations.size());
  if (analysis_cb_) analysis_cb_(violations);

  if (violations.empty() || planner_ == nullptr) return;

  // An iteration that found something becomes a trace: analyze, plan and
  // every execute are children, and the execute sends (and their device-
  // side deliveries) nest below. Quiet iterations create no spans.
  const obs::SpanContext iter_span =
      tracer().start_auto("mape", "iteration", id().value);
  obs::Tracer::Scope iter_scope(tracer(), iter_span);

  const obs::SpanContext analyze_span =
      tracer().start_span(iter_span, "mape", "analyze", id().value);
  tracer().annotate(analyze_span, "violations",
                    std::to_string(violations.size()));
  for (const Violation& v : violations) {
    tracer().annotate(analyze_span, "requirement", v.requirement);
  }
  tracer().end(analyze_span);
  network()
      .trace()
      .event("mape", "analyze")
      .node(id().value)
      .kv("violations", violations.size())
      .span(analyze_span);

  // Plan.
  const obs::SpanContext plan_span =
      tracer().start_span(iter_span, "mape", "plan", id().value);
  const std::vector<Action> actions = planner_->plan(violations, knowledge_);
  tracer().annotate(plan_span, "planner", planner_->name());
  tracer().annotate(plan_span, "actions", std::to_string(actions.size()));
  tracer().end(plan_span);

  // Execute.
  for (const Action& action : actions) execute(action);
  tracer().end(iter_span);
}

void MapeLoop::execute(const Action& action) {
  ++actions_issued_;
  actions_total_.increment();
  const obs::SpanContext span =
      tracer().start_auto("mape", "execute", id().value);
  tracer().annotate(span, "action", action.describe());
  network()
      .trace()
      .event("mape", "execute")
      .node(id().value)
      .detail(action.describe())
      .span(span);
  {
    // The ActionCommand send (and the effector's delivery) nests under the
    // execute span.
    obs::Tracer::Scope scope(tracer(), span);
    auto it = action_routes_.find(action.component);
    if (it != action_routes_.end()) {
      send(it->second, ActionCommand{action, next_plan_id_++});
    } else if (local_handler_) {
      local_handler_(action);
    }
  }
  tracer().end(span);
}

}  // namespace riot::adapt
