#include "core/maturity.hpp"

#include <algorithm>

#include "data/pubsub.hpp"
#include "membership/heartbeat.hpp"

namespace riot::core {

namespace {
constexpr int kSensorsPerSite = 5;
constexpr double kSensorRateHz = 2.0;
constexpr data::DataCategory kSensorCategory = data::DataCategory::kPersonal;
constexpr sim::SimTime kFreshnessBound = sim::seconds(3);
constexpr sim::SimTime kActuationDeadline = sim::millis(250);
constexpr sim::SimTime kRestartDelay = sim::seconds(5);
constexpr sim::SimTime kMapePeriod = sim::millis(500);
}  // namespace

std::string_view to_string(MaturityLevel level) {
  switch (level) {
    case MaturityLevel::kSilo:
      return "ML1-silo";
    case MaturityLevel::kCloud:
      return "ML2-cloud";
    case MaturityLevel::kEdge:
      return "ML3-edge";
    case MaturityLevel::kResilient:
      return "ML4-resilient";
  }
  return "?";
}

MaturityScenario::MaturityScenario(IoTSystem& system, MaturityLevel level,
                                   MaturityConfig config)
    : system_(system), level_(level), cfg_(config) {}

void MaturityScenario::install() {
  if (installed_) return;
  installed_ = true;
  lineage_ = std::make_unique<data::LineageGraph>(system_.registry());
  build_fleet();
  policy_ = std::make_unique<data::PolicyEngine>(system_.registry());
  // Privacy scopes: one per site, under the site's jurisdiction.
  for (auto& site : sites_) {
    const auto jurisdiction =
        system_.registry().domain(site.domain).jurisdiction;
    data::PrivacyScope scope;
    scope.name = "scope-" + site.topic;
    scope.jurisdiction = jurisdiction;
    scope.policy = jurisdiction == device::Jurisdiction::kGdpr
                       ? data::make_gdpr_policy()
                       : data::make_ccpa_policy();
    scope.members.insert(site.edge);
    scope.members.insert(site.gateway);
    scope.members.insert(site.actuator_dev);
    for (const auto dev : site.sensor_devs) scope.members.insert(dev);
    policy_->add_scope(std::move(scope));
  }
  switch (level_) {
    case MaturityLevel::kSilo:
      build_silo();
      break;
    case MaturityLevel::kCloud:
      build_cloud();
      break;
    case MaturityLevel::kEdge:
      build_edge();
      break;
    case MaturityLevel::kResilient:
      build_resilient();
      break;
  }
  add_probes();
  system_.resilience().start();
}

void MaturityScenario::build_fleet() {
  const device::DomainId cloud_domain = system_.add_domain(
      device::AdminDomain{.name = "cloud-provider",
                          .jurisdiction = device::Jurisdiction::kNone,
                          .trust = device::TrustLevel::kPartner});
  {
    auto cloud = device::make_cloud("cloud");
    cloud.location = {50'000.0, 50'000.0};
    cloud.domain = cloud_domain;
    cloud_ = system_.add_device(std::move(cloud));
  }
  sites_.reserve(static_cast<std::size_t>(cfg_.sites));
  for (int i = 0; i < cfg_.sites; ++i) {
    Site site;
    site.topic = "readings/" + std::to_string(i);
    const device::Location center{static_cast<double>(i) * 5'000.0, 0.0};
    site.domain = system_.add_domain(device::AdminDomain{
        .name = "site" + std::to_string(i),
        .jurisdiction = i % 2 == 0 ? device::Jurisdiction::kGdpr
                                   : device::Jurisdiction::kCcpa,
        .trust = device::TrustLevel::kOwned});
    {
      auto edge = device::make_edge("edge" + std::to_string(i));
      edge.location = center;
      edge.domain = site.domain;
      site.edge = system_.add_device(std::move(edge));
    }
    {
      auto gw = device::make_gateway("gw" + std::to_string(i));
      gw.location = {center.x + 20.0, center.y};
      gw.domain = site.domain;
      site.gateway = system_.add_device(std::move(gw));
    }
    {
      auto act = device::make_actuator("act" + std::to_string(i), "valve");
      act.location = {center.x + 50.0, center.y + 30.0};
      act.domain = site.domain;
      site.actuator_dev = system_.add_device(std::move(act));
    }
    for (int s = 0; s < kSensorsPerSite; ++s) {
      auto sensor = device::make_micro_sensor(
          "sensor" + std::to_string(i) + "." + std::to_string(s),
          "temperature");
      sensor.location = {center.x + 10.0 * s, center.y + 80.0};
      sensor.domain = site.domain;
      site.sensor_devs.push_back(system_.add_device(std::move(sensor)));
    }
    sites_.push_back(std::move(site));
  }
}

namespace {

/// Attach one SensorNode per sensor device, targeting `target`.
void attach_sensors(IoTSystem& system, MaturityScenario::Site& site,
                    net::NodeId target, data::LineageGraph* lineage) {
  for (const auto dev : site.sensor_devs) {
    auto& sensor = system.attach<SensorNode>(
        dev, SensorNode::Config{.topic = site.topic,
                                .category = kSensorCategory,
                                .rate_hz = kSensorRateHz,
                                .self_device = dev});
    sensor.set_target(target);
    sensor.set_lineage(lineage);
    site.sensors.push_back(&sensor);
  }
}

}  // namespace

// --- Shared site wiring ----------------------------------------------------------

void MaturityScenario::attach_actuator(Site& site) {
  site.actuator = &system_.attach<ActuatorNode>(
      site.actuator_dev,
      ActuatorNode::Config{.self_device = site.actuator_dev,
                           .deadline = kActuationDeadline});
}

ProcessorNode& MaturityScenario::attach_processor(Site& site,
                                                  device::DeviceId host,
                                                  std::string_view name,
                                                  bool active) {
  auto& processor = system_.attach<ProcessorNode>(
      host, ProcessorNode::Config{.name = std::string(name) + site.topic,
                                  .topic = site.topic,
                                  .self_device = host,
                                  .actuator = site.actuator->id(),
                                  .active = active});
  processor.set_lineage(lineage_.get());
  if (active) {
    site.primary = site.active = &processor;
  } else {
    site.standby = &processor;
  }
  return processor;
}

adapt::MapeLoop& MaturityScenario::add_loop(device::DeviceId host,
                                            std::span<Site> served) {
  auto& loop = system_.attach<adapt::MapeLoop>(host, kMapePeriod);
  loops_.push_back(&loop);
  loop.set_local_handler([this, &loop, served](const adapt::Action& action) {
    execute(loop, served, action);
  });
  return loop;
}

void MaturityScenario::execute(adapt::MapeLoop& loop, std::span<Site> served,
                               const adapt::Action& action) {
  const bool restart = action.kind == adapt::ActionKind::kRestartComponent;
  for (Site& site : served) {
    if (action.kind == adapt::ActionKind::kFailover &&
        action.component == site.topic) {
      do_failover(site);
    } else if (restart && action.component == "proc-" + site.topic) {
      // Once failed over, the standby serves: the primary is not restarted.
      loop.after(kRestartDelay, [&site] {
        if (site.primary == site.active) site.primary->recover();
      });
    } else if (restart && action.component == "edge-" + site.topic) {
      loop.after(kRestartDelay, [this, edge = site.edge] {
        system_.recover_device(edge);
      });
    }
  }
}

void MaturityScenario::add_watchdog(adapt::MapeLoop& loop,
                                    adapt::RuleBasedPlanner& planner,
                                    Site& site, const char* detail) {
  const std::string requirement = "processing@" + site.topic;
  loop.add_analyzer(requirement, [&site, requirement, detail](
                                     const adapt::KnowledgeBase&)
                        -> std::optional<adapt::Violation> {
    const auto age = site.active->data_age();
    if (!site.active->alive() || !age.has_value() || *age > kFreshnessBound) {
      return adapt::Violation{requirement, 1.0, detail};
    }
    return std::nullopt;
  });
  planner.when(requirement,
               adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                             .component = "proc-" + site.topic});
}

void MaturityScenario::add_freshness_monitor(adapt::MapeLoop& loop,
                                             Site& site) {
  loop.add_ltl_analyzer("ltl-fresh@" + site.topic,
                        model::ltl::always(model::ltl::prop("fresh")),
                        [&site](const adapt::KnowledgeBase&) {
                          model::ltl::State state;
                          const auto age = site.active->data_age();
                          if (age.has_value() && *age <= kFreshnessBound) {
                            state.insert("fresh");
                          }
                          return state;
                        });
  ++monitored_requirements_;
}

// --- ML1: vertically closed silo ---------------------------------------------

void MaturityScenario::build_silo() {
  for (auto& site : sites_) {
    attach_actuator(site);
    // Business logic bundled with the gateway "controller".
    auto& controller = attach_processor(site, site.gateway, "proc-", true);
    attach_sensors(system_, site, controller.id(), lineage_.get());
  }
}

// --- ML2: cloud-coupled -------------------------------------------------------

void MaturityScenario::build_cloud() {
  auto& broker = system_.attach<data::BrokerNode>(cloud_, system_.registry());
  broker.set_policy(policy_.get(), /*enforce=*/false);  // naive funnel
  auto& monitor = system_.attach<membership::HeartbeatMonitor>(cloud_);
  // Cloud MAPE: detect stale processing, restart the component.
  auto& mape = add_loop(cloud_, sites_);
  auto planner = std::make_unique<adapt::RuleBasedPlanner>();
  for (auto& site : sites_) {
    attach_actuator(site);
    attach_processor(site, cloud_, "proc-", true).use_broker(broker.id());
    attach_sensors(system_, site, broker.id(), lineage_.get());
    // Heartbeats: edges/gateways report to the cloud monitor.
    auto& hb = system_.attach<membership::HeartbeatEmitter>(site.gateway,
                                                            monitor.id());
    monitor.watch(hb.id());
    add_watchdog(mape, *planner, site, "stale or dead processor");
  }
  mape.set_planner(std::move(planner));
  // Cloud archiver: consumes the raw streams (this is the governance
  // anti-pattern ML2 represents — personal data funneled cross-border).
  auto& archiver = system_.attach<data::BrokerClient>(
      cloud_, broker.id(), cloud_);
  for (auto& site : sites_) {
    archiver.subscribe(site.topic, [this](const data::DataItem&,
                                          sim::SimTime) { ++archived_; });
  }
}

// --- ML3: edge-centric ---------------------------------------------------------

void MaturityScenario::build_edge() {
  // Cloud supervisor: watches edges, restarts them remotely (hierarchical
  // automation — edge manages the site, cloud manages the edges).
  auto& monitor = system_.attach<membership::HeartbeatMonitor>(cloud_);
  auto& supervisor = add_loop(cloud_, sites_);
  auto supervisor_planner = std::make_unique<adapt::RuleBasedPlanner>();
  for (auto& site : sites_) {
    attach_actuator(site);
    auto& broker = system_.attach<data::BrokerNode>(site.edge,
                                                    system_.registry());
    broker.set_policy(policy_.get(), /*enforce=*/true);
    attach_processor(site, site.edge, "proc-", true).use_broker(broker.id());
    attach_sensors(system_, site, broker.id(), lineage_.get());

    // Edge MAPE: analysis and planning at the edge (Figure 5 placement),
    // plus a formal runtime monitor on the same requirement (task-specific
    // verification, per the ML3 row of Table 1).
    auto& mape = add_loop(site.edge, {&site, 1});
    auto planner = std::make_unique<adapt::RuleBasedPlanner>();
    add_watchdog(mape, *planner, site, "stale processing");
    add_freshness_monitor(mape, site);
    mape.set_planner(std::move(planner));

    // Edge heartbeats to the cloud supervisor.
    auto& hb = system_.attach<membership::HeartbeatEmitter>(site.edge,
                                                            monitor.id());
    monitor.watch(hb.id());
    const std::string edge_req = "edge@" + site.topic;
    supervisor.add_analyzer(
        edge_req, [&monitor, edge_req, hb_id = hb.id()](
                      const adapt::KnowledgeBase&)
                      -> std::optional<adapt::Violation> {
          if (!monitor.considers_alive(hb_id)) {
            return adapt::Violation{edge_req, 1.0, "edge unresponsive"};
          }
          return std::nullopt;
        });
    supervisor_planner->when(
        edge_req, adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                                .component = "edge-" + site.topic});
  }
  supervisor.set_planner(std::move(supervisor_planner));
}

// --- ML4: resilient, decentralized ---------------------------------------------

void MaturityScenario::build_resilient() {
  // Cloud-side relay exists only as a (policy-governed) archive consumer;
  // nothing in the sites depends on it.
  auto& cloud_relay = system_.attach<data::EpidemicPubSub>(
      cloud_, system_.registry(), cloud_, 8);
  cloud_relay.set_policy(policy_.get(), /*enforce=*/true);

  for (auto& site : sites_) {
    attach_actuator(site);
    auto& edge_relay = system_.attach<data::EpidemicPubSub>(
        site.edge, system_.registry(), site.edge, 8);
    edge_relay.set_policy(policy_.get(), /*enforce=*/true);
    auto& gw_relay = system_.attach<data::EpidemicPubSub>(
        site.gateway, system_.registry(), site.gateway, 8);
    gw_relay.set_policy(policy_.get(), /*enforce=*/true);
    edge_relay.add_peer(gw_relay.id());
    gw_relay.add_peer(edge_relay.id());
    edge_relay.add_peer(cloud_relay.id());
    cloud_relay.add_peer(edge_relay.id());
    cloud_relay.subscribe(site.topic, [this](const data::DataItem&,
                                             sim::SimTime) { ++archived_; });

    auto& primary = attach_processor(site, site.edge, "proc-", true);
    auto& standby = attach_processor(site, site.gateway, "proc2-", false);
    edge_relay.subscribe(site.topic,
                         [&primary](const data::DataItem& item, sim::SimTime) {
                           primary.handle_item(item);
                         });
    gw_relay.subscribe(site.topic,
                       [&standby](const data::DataItem& item, sim::SimTime) {
                         standby.handle_item(item);
                       });

    attach_sensors(system_, site, edge_relay.id(), lineage_.get());
    for (auto* sensor : site.sensors) {
      sensor->set_secondary_target(gw_relay.id());
    }

    // SWIM pair: edge and gateway watch each other, no monitor involved.
    auto& edge_swim = system_.attach<membership::SwimMember>(site.edge);
    auto& gw_swim = system_.attach<membership::SwimMember>(site.gateway);
    edge_swim.add_peer(gw_swim.id());
    gw_swim.add_peer(edge_swim.id());

    wire_site_failover(site, gw_swim, edge_swim.id());

    // Edge MAPE with local self-healing + formal monitors (freshness and
    // actuation), as in ML3 but with actions that never leave the site.
    auto& mape = add_loop(site.edge, {&site, 1});
    auto planner = std::make_unique<adapt::RuleBasedPlanner>();
    add_watchdog(mape, *planner, site, "stale processing");
    add_freshness_monitor(mape, site);
    mape.add_ltl_analyzer(
        "ltl-actuation@" + site.topic,
        model::ltl::always(model::ltl::prop("actuating")),
        [&site](const adapt::KnowledgeBase&) {
          model::ltl::State state;
          if (site.actuator->recent_deadline_ratio(8) >= 0.5) {
            state.insert("actuating");
          }
          return state;
        });
    ++monitored_requirements_;
    mape.set_planner(std::move(planner));
  }
}

void MaturityScenario::wire_site_failover(Site& site,
                                          membership::SwimMember& gateway_swim,
                                          net::NodeId edge_swim) {
  // Gateway MAPE: SWIM-driven failover + watchdog restart of the edge.
  auto& mape = add_loop(site.gateway, {&site, 1});
  const std::string requirement = "edge-alive@" + site.topic;
  mape.add_analyzer(
      requirement, [&site, &gateway_swim, edge_swim, requirement](
                       const adapt::KnowledgeBase&)
                       -> std::optional<adapt::Violation> {
        if (site.failover_done) return std::nullopt;
        if (gateway_swim.state_of(edge_swim) ==
            membership::MemberState::kDead) {
          return adapt::Violation{requirement, 1.0, "edge declared dead"};
        }
        return std::nullopt;
      });
  auto planner = std::make_unique<adapt::RuleBasedPlanner>();
  planner->add_rule(adapt::PlanningRule{
      .name = "edge-dead->failover+watchdog",
      .matches = [requirement](const adapt::Violation& v) {
        return v.requirement == requirement;
      },
      .make = [&site](const adapt::Violation&, const adapt::KnowledgeBase&) {
        return std::vector<adapt::Action>{
            adapt::Action{.kind = adapt::ActionKind::kFailover,
                          .component = site.topic},
            adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                          .component = "edge-" + site.topic}};
      }});
  mape.set_planner(std::move(planner));
}

void MaturityScenario::do_failover(Site& site) {
  if (site.failover_done) return;
  site.failover_done = true;
  site.primary->set_active(false);  // sticky: stays passive after recovery
  site.standby->set_active(true);
  site.active = site.standby;
  system_.trace()
      .event("scenario", "failover")
      .node(site.standby->id().value)
      .detail(site.topic);
}

// --- Probes ---------------------------------------------------------------------

void MaturityScenario::add_probes() {
  auto& evaluator = system_.resilience();
  const sim::SimTime warmup = sim::seconds(5);
  for (auto& site : sites_) {
    Site* site_ptr = &site;
    evaluator.add_probe(RequirementProbe{
        .name = "freshness@" + site.topic,
        .weight = 1.0,
        .satisfied = [this, site_ptr, warmup] {
          if (system_.simulation().now() < warmup) return true;
          if (!site_ptr->active->alive()) return false;
          const auto age = site_ptr->active->data_age();
          return age.has_value() && *age <= kFreshnessBound;
        }});
    const sim::SimTime actuation_window =
        std::max(sim::seconds_f(3.0 / kSensorRateHz), sim::seconds(2));
    evaluator.add_probe(RequirementProbe{
        .name = "actuation@" + site.topic,
        .weight = 1.0,
        .satisfied = [this, site_ptr, warmup, actuation_window] {
          const sim::SimTime now = system_.simulation().now();
          if (now < warmup) return true;
          if (site_ptr->actuator->actuations() == 0) return false;
          if (now - site_ptr->actuator->last_actuation_at() >
              actuation_window) {
            return false;
          }
          return site_ptr->actuator->recent_deadline_ratio(8) >= 0.7;
        }});
  }
  // Privacy: no unenforced leak within the trailing window (a leaking
  // system is in continuous violation, not a once-per-sample blip).
  struct LeakWatch {
    std::uint64_t count = 0;
    sim::SimTime last_change = sim::kSimTimeZero;
  };
  auto watch = std::make_shared<LeakWatch>();
  const sim::SimTime window = kFreshnessBound;
  evaluator.add_probe(RequirementProbe{
      .name = "privacy",
      .weight = 1.0,
      .satisfied = [this, watch, window] {
        const std::uint64_t current = privacy_leaks();
        const sim::SimTime now = system_.simulation().now();
        if (current != watch->count) {
          watch->count = current;
          watch->last_change = now;
        }
        return watch->count == 0 || now - watch->last_change >= window;
      }});
}

// --- Disruptions ------------------------------------------------------------------

void MaturityScenario::schedule_cloud_outage(sim::SimTime start,
                                             sim::SimTime duration) {
  system_.faults().plan_window(
      start, duration, "cloud-outage",
      [this] { system_.crash_device(cloud_); },
      [this] { system_.recover_device(cloud_); });
  system_.faults().arm();
}

void MaturityScenario::schedule_processing_crash(int site_index,
                                                 sim::SimTime at) {
  Site* site = &sites_.at(static_cast<std::size_t>(site_index));
  switch (level_) {
    case MaturityLevel::kSilo:
      // Nothing detects the fault; a technician drives out.
      system_.faults().plan_at(at, "silo-controller-crash", [this, site] {
        system_.crash_device(site->gateway);
        system_.simulation().schedule_after(
            cfg_.manual_repair_delay, [this, site] {
              ++manual_repairs_;
              system_.recover_device(site->gateway);
            });
      });
      break;
    case MaturityLevel::kCloud:
      // Component fault in the cloud processor; cloud MAPE restarts it.
      system_.faults().plan_at(at, "cloud-processor-crash",
                               [site] { site->primary->crash(); });
      break;
    case MaturityLevel::kEdge:
    case MaturityLevel::kResilient:
      // The whole edge box dies; recovery is the level's business.
      system_.faults().plan_at(at, "edge-crash", [this, site] {
        system_.crash_device(site->edge);
      });
      break;
  }
  system_.faults().arm();
}

void MaturityScenario::schedule_wan_partition(sim::SimTime start,
                                              sim::SimTime duration) {
  system_.faults().plan_window(
      start, duration, "wan-partition",
      [this] {
        std::vector<net::NodeId> cloud_nodes;
        for (const net::Node* node : system_.nodes_of(cloud_)) {
          cloud_nodes.push_back(node->id());
        }
        system_.network().partition({cloud_nodes});
      },
      [this] { system_.network().heal_partition(); });
  system_.faults().arm();
}

void MaturityScenario::schedule_sensor_churn(sim::SimTime from,
                                             sim::SimTime until,
                                             sim::SimTime mean_interarrival,
                                             sim::SimTime downtime) {
  auto rng = std::make_shared<sim::Rng>(
      system_.simulation().rng().split("churn"));
  system_.faults().plan_poisson(
      from, until, mean_interarrival, downtime, [this, rng] {
        const auto& site = sites_[rng->below(sites_.size())];
        const auto dev =
            site.sensor_devs[rng->below(site.sensor_devs.size())];
        return sim::Disruption{
            .name = "sensor-churn",
            .apply = [this, dev] { system_.crash_device(dev); },
            .revert = [this, dev] { system_.recover_device(dev); }};
      });
  system_.faults().arm();
}

// --- Aggregates -------------------------------------------------------------------

std::uint64_t MaturityScenario::autonomous_actions() const {
  std::uint64_t total = 0;
  for (const adapt::MapeLoop* loop : loops_) total += loop->actions_issued();
  return total;
}

std::uint64_t MaturityScenario::privacy_leaks() const {
  return policy_ ? policy_->violations() - policy_->blocked() : 0;
}

}  // namespace riot::core
