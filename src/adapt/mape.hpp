// The MAPE-K loop, placeable on any host node (edge or cloud).
//
// Figure 5: Monitoring and Execution live with the end-devices (sensing/
// actuation); Analysis and Planning are placed on a host — the paper
// argues for edge placement, and the fig5 benchmark measures why: with a
// cloud host every observation and every actuation crosses the WAN, so
// detection and recovery inherit its latency and its outages.
//
//   TelemetrySource (per device)  --TelemetryReport-->  MapeLoop (host)
//   MapeLoop: every period  Analyze(KB) -> Violations -> Plan -> Actions
//   MapeLoop  --ActionCommand-->  Effector (per device)  [Execute]
//
// Analyzers are either plain predicates over the KnowledgeBase or LTL
// monitors progressing over a proposition-extraction of the KB at the
// loop's clock — runtime verification embedded in the loop, as Section VII
// prescribes. A monitor's bounded operators turn deadline requirements
// ("stale data must be repaired within d") into violations the moment the
// deadline passes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/actions.hpp"
#include "adapt/knowledge.hpp"
#include "model/ltl.hpp"
#include "net/node.hpp"

namespace riot::adapt {

/// One analyzer finding.
struct Violation {
  std::string requirement;
  double severity = 1.0;  // [0,1]
  std::string detail;
};

/// Monitor-side report payload.
struct TelemetryReport {
  std::vector<std::pair<std::string, double>> entries;
  sim::SimTime sampled_at = sim::kSimTimeZero;
  std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(24 + entries.size() * 40);
  }
};

/// Execute-side command payload.
struct ActionCommand {
  Action action;
  std::uint64_t plan_id = 0;
};

/// Runs on a monitored device: samples registered probes every period and
/// ships the report to the loop host (Monitor phase, device half).
class TelemetrySource : public net::Node {
 public:
  using ProbeFn = std::function<double()>;

  TelemetrySource(net::Network& network, net::NodeId loop_host,
                  sim::SimTime period = sim::millis(500));

  void add_probe(std::string key, ProbeFn fn);
  void set_loop_host(net::NodeId host) { loop_host_ = host; }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  void sample_and_send();

  net::NodeId loop_host_;
  sim::SimTime period_;
  std::vector<std::pair<std::string, ProbeFn>> probes_;
};

/// Runs on a managed device: applies ActionCommands locally (Execute
/// phase, device half). The actual effect is delegated to a handler wired
/// by the scenario (src/core), since actions touch scenario-owned state.
class Effector : public net::Node {
 public:
  using Handler = std::function<void(const Action&)>;

  Effector(net::Network& network, Handler handler);

  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  Handler handler_;
  std::uint64_t executed_ = 0;
  sim::Counter& executed_total_;
};

/// Planner interface: violations + knowledge -> actions.
class Planner {
 public:
  virtual ~Planner() = default;
  [[nodiscard]] virtual std::vector<Action> plan(
      const std::vector<Violation>& violations,
      const KnowledgeBase& knowledge) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// The loop host (Analysis + Planning + knowledge).
class MapeLoop : public net::Node {
 public:
  using AnalyzerFn =
      std::function<std::optional<Violation>(const KnowledgeBase&)>;

  MapeLoop(net::Network& network, sim::SimTime period = sim::millis(500));

  KnowledgeBase& knowledge() { return knowledge_; }

  /// Plain predicate analyzer.
  void add_analyzer(std::string name, AnalyzerFn fn);

  /// LTL runtime-verification analyzer: each loop iteration extracts a
  /// proposition state from the KB and progresses the monitor at the
  /// node's clock; a decided verdict resets the monitor (so it keeps
  /// guarding subsequent windows), and kViolated also raises the violation.
  void add_ltl_analyzer(std::string name, model::ltl::FormulaPtr formula,
                        std::function<model::ltl::State(const KnowledgeBase&)>
                            extract_state);

  void set_planner(std::unique_ptr<Planner> planner) {
    planner_ = std::move(planner);
  }

  /// Where to send actions for a component (its effector node). Components
  /// without a route execute via the local handler if set.
  void route_component(const std::string& component, net::NodeId effector);
  void set_local_handler(Effector::Handler handler) {
    local_handler_ = std::move(handler);
  }

  /// Loop statistics.
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] std::uint64_t violations_raised() const {
    return violations_raised_;
  }
  [[nodiscard]] std::uint64_t actions_issued() const {
    return actions_issued_;
  }
  [[nodiscard]] const std::vector<Violation>& last_violations() const {
    return last_violations_;
  }
  /// Local-clock stamp of the most recent analysis pass (observation hook:
  /// chaos liveness checkers assert the loop kept running).
  [[nodiscard]] sim::SimTime last_analysis_at() const {
    return last_analysis_at_;
  }

  /// Callback fired with the violations of each analysis pass (metrics).
  void on_analysis(
      std::function<void(const std::vector<Violation>&)> cb) {
    analysis_cb_ = std::move(cb);
  }

  /// Force one loop iteration now (tests).
  void iterate_now() { iterate(); }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  struct LtlAnalyzer {
    std::string name;
    model::ltl::Monitor monitor;
    std::function<model::ltl::State(const KnowledgeBase&)> extract;
  };

  void iterate();
  void execute(const Action& action);

  sim::SimTime period_;
  KnowledgeBase knowledge_;
  std::vector<std::pair<std::string, AnalyzerFn>> analyzers_;
  std::vector<LtlAnalyzer> ltl_analyzers_;
  std::unique_ptr<Planner> planner_;
  std::unordered_map<std::string, net::NodeId> action_routes_;
  Effector::Handler local_handler_;
  std::function<void(const std::vector<Violation>&)> analysis_cb_;
  std::vector<Violation> last_violations_;
  sim::SimTime last_analysis_at_ = sim::kSimTimeZero;
  std::uint64_t iterations_ = 0;
  std::uint64_t violations_raised_ = 0;
  std::uint64_t actions_issued_ = 0;
  std::uint64_t next_plan_id_ = 1;
  sim::Counter& iterations_total_;
  sim::Counter& violations_total_;
  sim::Counter& actions_total_;
};

}  // namespace riot::adapt
