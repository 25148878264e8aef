#include "core/maturity.hpp"

#include <algorithm>

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

// --- ML1: vertically closed silo ---------------------------------------------

void MaturityScenario::build_silo() {
  for (auto& site : sites_) {
    auto& actuator = system_.attach<ActuatorNode>(
        site.actuator_dev,
        ActuatorNode::Config{.self_device = site.actuator_dev,
                             .deadline = kActuationDeadline});
    site.actuator = &actuator;
    // Business logic bundled with the gateway "controller".
    auto& controller = system_.attach<ProcessorNode>(
        site.gateway, ProcessorNode::Config{.name = "proc-" + site.topic,
                                            .topic = site.topic,
                                            .self_device = site.gateway,
                                            .actuator = actuator.id(),
                                            .active = true});
    controller.set_lineage(lineage_.get());
    site.primary = site.active = &controller;
    attach_sensors(system_, site, controller.id(), lineage_.get());
  }
}

// --- ML2: cloud-coupled -------------------------------------------------------

void MaturityScenario::build_cloud() {
  auto& broker = system_.attach<data::BrokerNode>(cloud_, system_.registry());
  broker.set_policy(policy_.get(), /*enforce=*/false);  // naive funnel

  auto& monitor = system_.attach<membership::HeartbeatMonitor>(cloud_);
  cloud_monitor_ = &monitor;

  auto& mape = system_.attach<adapt::MapeLoop>(cloud_, kMapePeriod);
  cloud_mape_ = &mape;
  auto planner = std::make_unique<adapt::RuleBasedPlanner>();

  for (auto& site : sites_) {
    auto& actuator = system_.attach<ActuatorNode>(
        site.actuator_dev,
        ActuatorNode::Config{.self_device = site.actuator_dev,
                             .deadline = kActuationDeadline});
    site.actuator = &actuator;
    auto& processor = system_.attach<ProcessorNode>(
        cloud_, ProcessorNode::Config{.name = "proc-" + site.topic,
                                      .topic = site.topic,
                                      .self_device = cloud_,
                                      .actuator = actuator.id(),
                                      .active = true});
    processor.use_broker(broker.id());
    processor.set_lineage(lineage_.get());
    site.primary = site.active = &processor;
    attach_sensors(system_, site, broker.id(), lineage_.get());

    // Heartbeats: edges/gateways report to the cloud monitor.
    auto& hb = system_.attach<membership::HeartbeatEmitter>(site.gateway,
                                                            monitor.id());
    monitor.watch(hb.id());

    // Cloud MAPE: detect stale processing, restart the component.
    const std::string requirement = "processing@" + site.topic;
    Site* site_ptr = &site;
    mape.add_analyzer(requirement, [this, site_ptr, requirement](
                                       const adapt::KnowledgeBase&)
                          -> std::optional<adapt::Violation> {
      const auto age = site_ptr->primary->data_age();
      const bool stale = !site_ptr->primary->alive() || !age.has_value() ||
                         *age > kFreshnessBound;
      if (stale) {
        return adapt::Violation{requirement, 1.0, "stale or dead processor"};
      }
      return std::nullopt;
    });
    planner->when(requirement,
                  adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                                .component = "proc-" + site.topic});
  }
  // Cloud archiver: consumes the raw streams (this is the governance
  // anti-pattern ML2 represents — personal data funneled cross-border).
  auto& archiver = system_.attach<data::BrokerClient>(
      cloud_, broker.id(), cloud_);
  for (auto& site : sites_) {
    archiver.subscribe(site.topic, [this](const data::DataItem&,
                                          sim::SimTime) { ++archived_; });
  }

  mape.set_local_handler([this](const adapt::Action& action) {
    if (action.kind != adapt::ActionKind::kRestartComponent) return;
    for (auto& site : sites_) {
      if (action.component == "proc-" + site.topic) {
        Site* site_ptr = &site;
        cloud_mape_->after(kRestartDelay, [site_ptr] {
          site_ptr->primary->recover();
        });
      }
    }
  });
  mape.set_planner(std::move(planner));
}

// --- ML3: edge-centric ---------------------------------------------------------

void MaturityScenario::build_edge() {
  // Cloud supervisor: watches edges, restarts them remotely (hierarchical
  // automation — edge manages the site, cloud manages the edges).
  auto& monitor = system_.attach<membership::HeartbeatMonitor>(cloud_);
  cloud_monitor_ = &monitor;
  auto& cloud_mape = system_.attach<adapt::MapeLoop>(cloud_, kMapePeriod);
  cloud_mape_ = &cloud_mape;
  auto supervisor_planner = std::make_unique<adapt::RuleBasedPlanner>();

  for (auto& site : sites_) {
    auto& actuator = system_.attach<ActuatorNode>(
        site.actuator_dev,
        ActuatorNode::Config{.self_device = site.actuator_dev,
                             .deadline = kActuationDeadline});
    site.actuator = &actuator;

    auto& broker = system_.attach<data::BrokerNode>(site.edge,
                                                    system_.registry());
    broker.set_policy(policy_.get(), /*enforce=*/true);
    site.site_broker = &broker;

    auto& processor = system_.attach<ProcessorNode>(
        site.edge, ProcessorNode::Config{.name = "proc-" + site.topic,
                                         .topic = site.topic,
                                         .self_device = site.edge,
                                         .actuator = actuator.id(),
                                         .active = true});
    processor.use_broker(broker.id());
    processor.set_lineage(lineage_.get());
    site.primary = site.active = &processor;
    attach_sensors(system_, site, broker.id(), lineage_.get());

    // Edge MAPE: analysis and planning at the edge (Figure 5 placement).
    auto& mape = system_.attach<adapt::MapeLoop>(site.edge, kMapePeriod);
    site.edge_mape = &mape;
    const std::string requirement = "processing@" + site.topic;
    Site* site_ptr = &site;
    mape.add_analyzer(requirement, [this, site_ptr, requirement](
                                       const adapt::KnowledgeBase&)
                          -> std::optional<adapt::Violation> {
      const auto age = site_ptr->primary->data_age();
      if (!site_ptr->primary->alive() || !age.has_value() ||
          *age > kFreshnessBound) {
        return adapt::Violation{requirement, 1.0, "stale processing"};
      }
      return std::nullopt;
    });
    // Formal runtime monitor on the same requirement (task-specific
    // verification, per the ML3 row of Table 1).
    mape.add_ltl_analyzer(
        "ltl-fresh@" + site.topic,
        model::ltl::always(model::ltl::prop("fresh")),
        [this, site_ptr](const adapt::KnowledgeBase&) {
          model::ltl::State state;
          const auto age = site_ptr->primary->data_age();
          if (age.has_value() && *age <= kFreshnessBound) {
            state.insert("fresh");
          }
          return state;
        });
    ++monitored_requirements_;
    auto edge_planner = std::make_unique<adapt::RuleBasedPlanner>();
    edge_planner->when(
        requirement,
        adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                      .component = "proc-" + site.topic});
    mape.set_local_handler([this, site_ptr](const adapt::Action& action) {
      if (action.kind != adapt::ActionKind::kRestartComponent) return;
      site_ptr->edge_mape->after(kRestartDelay, [site_ptr] {
        site_ptr->primary->recover();
      });
    });
    mape.set_planner(std::move(edge_planner));

    // Edge heartbeats to the cloud supervisor.
    auto& hb = system_.attach<membership::HeartbeatEmitter>(site.edge,
                                                            monitor.id());
    site.edge_heartbeat = &hb;
    monitor.watch(hb.id());

    const std::string edge_req = "edge@" + site.topic;
    cloud_mape.add_analyzer(
        edge_req, [this, site_ptr, edge_req, hb_id = hb.id()](
                      const adapt::KnowledgeBase&)
                      -> std::optional<adapt::Violation> {
          if (!cloud_monitor_->considers_alive(hb_id)) {
            return adapt::Violation{edge_req, 1.0, "edge unresponsive"};
          }
          return std::nullopt;
        });
    supervisor_planner->when(
        edge_req, adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                                .component = "edge-" + site.topic});
  }
  cloud_mape.set_local_handler([this](const adapt::Action& action) {
    if (action.kind != adapt::ActionKind::kRestartComponent) return;
    for (auto& site : sites_) {
      if (action.component == "edge-" + site.topic) {
        device::DeviceId edge_dev = site.edge;
        cloud_mape_->after(kRestartDelay, [this, edge_dev] {
          system_.recover_device(edge_dev);
        });
      }
    }
  });
  cloud_mape.set_planner(std::move(supervisor_planner));
}

// --- ML4: resilient, decentralized ---------------------------------------------

void MaturityScenario::build_resilient() {
  // Cloud-side relay exists only as a (policy-governed) archive consumer;
  // nothing in the sites depends on it.
  auto& cloud_relay = system_.attach<data::EpidemicPubSub>(
      cloud_, system_.registry(), cloud_, 8);
  cloud_relay.set_policy(policy_.get(), /*enforce=*/true);

  for (auto& site : sites_) {
    auto& actuator = system_.attach<ActuatorNode>(
        site.actuator_dev,
        ActuatorNode::Config{.self_device = site.actuator_dev,
                             .deadline = kActuationDeadline});
    site.actuator = &actuator;

    auto& edge_relay = system_.attach<data::EpidemicPubSub>(
        site.edge, system_.registry(), site.edge, 8);
    edge_relay.set_policy(policy_.get(), /*enforce=*/true);
    site.edge_relay = &edge_relay;
    auto& gw_relay = system_.attach<data::EpidemicPubSub>(
        site.gateway, system_.registry(), site.gateway, 8);
    gw_relay.set_policy(policy_.get(), /*enforce=*/true);
    site.gateway_relay = &gw_relay;
    edge_relay.add_peer(gw_relay.id());
    gw_relay.add_peer(edge_relay.id());
    edge_relay.add_peer(cloud_relay.id());
    cloud_relay.add_peer(edge_relay.id());
    cloud_relay.subscribe(site.topic, [this](const data::DataItem&,
                                             sim::SimTime) { ++archived_; });

    auto& primary = system_.attach<ProcessorNode>(
        site.edge, ProcessorNode::Config{.name = "proc-" + site.topic,
                                         .topic = site.topic,
                                         .self_device = site.edge,
                                         .actuator = actuator.id(),
                                         .active = true});
    primary.set_lineage(lineage_.get());
    auto& standby = system_.attach<ProcessorNode>(
        site.gateway, ProcessorNode::Config{.name = "proc2-" + site.topic,
                                            .topic = site.topic,
                                            .self_device = site.gateway,
                                            .actuator = actuator.id(),
                                            .active = false});
    standby.set_lineage(lineage_.get());
    site.primary = site.active = &primary;
    site.standby = &standby;
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
    site.edge_swim = &edge_swim;
    site.gateway_swim = &gw_swim;

    wire_site_failover(site);

    // Edge MAPE with local self-healing + formal monitors (freshness and
    // actuation), as in ML3 but with actions that never leave the site.
    auto& mape = system_.attach<adapt::MapeLoop>(site.edge, kMapePeriod);
    site.edge_mape = &mape;
    Site* site_ptr = &site;
    const std::string requirement = "processing@" + site.topic;
    mape.add_analyzer(requirement, [this, site_ptr, requirement](
                                       const adapt::KnowledgeBase&)
                          -> std::optional<adapt::Violation> {
      const auto age = site_ptr->active->data_age();
      if (!site_ptr->active->alive() || !age.has_value() ||
          *age > kFreshnessBound) {
        return adapt::Violation{requirement, 1.0, "stale processing"};
      }
      return std::nullopt;
    });
    mape.add_ltl_analyzer(
        "ltl-fresh@" + site.topic,
        model::ltl::always(model::ltl::prop("fresh")),
        [this, site_ptr](const adapt::KnowledgeBase&) {
          model::ltl::State state;
          const auto age = site_ptr->active->data_age();
          if (age.has_value() && *age <= kFreshnessBound) {
            state.insert("fresh");
          }
          return state;
        });
    mape.add_ltl_analyzer(
        "ltl-actuation@" + site.topic,
        model::ltl::always(model::ltl::prop("actuating")),
        [site_ptr](const adapt::KnowledgeBase&) {
          model::ltl::State state;
          if (site_ptr->actuator->recent_deadline_ratio(8) >= 0.5) {
            state.insert("actuating");
          }
          return state;
        });
    monitored_requirements_ += 2;
    auto edge_planner = std::make_unique<adapt::RuleBasedPlanner>();
    edge_planner->when(
        requirement,
        adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                      .component = "proc-" + site.topic});
    mape.set_local_handler([this, site_ptr](const adapt::Action& action) {
      if (action.kind != adapt::ActionKind::kRestartComponent) return;
      site_ptr->edge_mape->after(kRestartDelay, [site_ptr] {
        if (site_ptr->primary == site_ptr->active) {
          site_ptr->primary->recover();
        }
      });
    });
    mape.set_planner(std::move(edge_planner));
  }
}

void MaturityScenario::wire_site_failover(Site& site) {
  // Gateway MAPE: SWIM-driven failover + watchdog restart of the edge.
  auto& mape = system_.attach<adapt::MapeLoop>(site.gateway,
                                               kMapePeriod);
  site.gateway_mape = &mape;
  Site* site_ptr = &site;
  const std::string requirement = "edge-alive@" + site.topic;
  mape.add_analyzer(
      requirement,
      [site_ptr, requirement, edge_node = site.edge_swim->id()](
          const adapt::KnowledgeBase&) -> std::optional<adapt::Violation> {
        if (site_ptr->failover_done) return std::nullopt;
        if (site_ptr->gateway_swim->state_of(edge_node) ==
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
      .make = [site_ptr](const adapt::Violation&, const adapt::KnowledgeBase&) {
        return std::vector<adapt::Action>{
            adapt::Action{.kind = adapt::ActionKind::kFailover,
                          .component = site_ptr->topic},
            adapt::Action{.kind = adapt::ActionKind::kRestartComponent,
                          .component = "edge-" + site_ptr->topic}};
      }});
  mape.set_local_handler([this, site_ptr](const adapt::Action& action) {
    if (action.kind == adapt::ActionKind::kFailover) {
      do_failover(*site_ptr);
    } else if (action.kind == adapt::ActionKind::kRestartComponent) {
      device::DeviceId edge_dev = site_ptr->edge;
      site_ptr->gateway_mape->after(kRestartDelay, [this, edge_dev] {
        system_.recover_device(edge_dev);
      });
    }
  });
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
  if (cloud_mape_ != nullptr) total += cloud_mape_->actions_issued();
  for (const auto& site : sites_) {
    if (site.edge_mape != nullptr) total += site.edge_mape->actions_issued();
    if (site.gateway_mape != nullptr) {
      total += site.gateway_mape->actions_issued();
    }
  }
  return total;
}

std::uint64_t MaturityScenario::privacy_leaks() const {
  return policy_ ? policy_->violations() - policy_->blocked() : 0;
}

}  // namespace riot::core
