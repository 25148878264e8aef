// Maturity-level scenarios (Tables 1 and 2, executable).
//
// The same smart-city-style workload — per site: sensors -> processing ->
// actuation, with personal-category data — assembled at each maturity
// level of the roadmap:
//
//   ML1 kSilo      vertically closed: sensors wired to a site controller
//                  (gateway); no detection, no automation — a crash is
//                  repaired manually after a long on-site delay; data
//                  never leaves the site (isolated flows).
//   ML2 kCloud     everything in the cloud: central broker, processing,
//                  heartbeat monitoring and a cloud MAPE loop; sensors
//                  cross the WAN both ways; a cloud archiver consumes the
//                  raw (personal) stream with NO policy enforcement.
//   ML3 kEdge      per-site broker/processing/MAPE on the edge; the cloud
//                  supervises edges (hierarchical); governance only for
//                  GDPR-jurisdiction sites.
//   ML4 kResilient decentralized: epidemic data plane over edge+gateway
//                  relays, SWIM failure detection, warm-standby processor
//                  on the gateway with MAPE failover, policy enforcement
//                  at every relay, autonomous watchdog restarts.
//
// Each level is a short recipe over the same site wiring, written once:
// the actuator and processor attach, a MAPE loop bound to the one action
// executor (restart a processor, restart an edge, fail over) for the sites
// it serves, the processing watchdog (a `processing@<topic>` analyzer and
// its `restart proc-<topic>` rule) and the LTL freshness monitor. What a
// recipe adds beyond those is what sets its level apart.
//
// A MaturityScenario builds the fleet, wires the requirement probes
// (freshness, actuation timeliness, privacy) into the ResilienceEvaluator
// and exposes the disruption schedule used by the benchmarks.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adapt/mape.hpp"
#include "adapt/planner.hpp"
#include "core/app.hpp"
#include "core/system.hpp"
#include "data/lineage.hpp"
#include "data/privacy.hpp"
#include "membership/swim.hpp"

namespace riot::core {

enum class MaturityLevel : int {
  kSilo = 1,
  kCloud = 2,
  kEdge = 3,
  kResilient = 4,
};

std::string_view to_string(MaturityLevel level);

/// What callers tune; the per-site workload and timing are in maturity.cpp.
struct MaturityConfig {
  int sites = 2;
  sim::SimTime manual_repair_delay = sim::seconds(120);  // ML1 technician
};

class MaturityScenario {
 public:
  struct Site {
    device::DomainId domain;
    device::DeviceId edge;
    device::DeviceId gateway;
    device::DeviceId actuator_dev;
    std::vector<device::DeviceId> sensor_devs;
    std::string topic;

    std::vector<SensorNode*> sensors;
    ActuatorNode* actuator = nullptr;
    ProcessorNode* primary = nullptr;
    ProcessorNode* standby = nullptr;  // ML4
    ProcessorNode* active = nullptr;   // whichever currently actuates
    bool failover_done = false;
  };

  MaturityScenario(IoTSystem& system, MaturityLevel level,
                   MaturityConfig config = {});

  /// Build devices, components, probes. Call once before running.
  void install();

  // --- Disruptions ---------------------------------------------------------
  /// The cloud datacenter goes dark for `duration`.
  void schedule_cloud_outage(sim::SimTime start, sim::SimTime duration);
  /// The device hosting site `site`'s processing crashes; recovery follows
  /// the level's operations model (manual / cloud-restart / supervisor /
  /// local failover + watchdog).
  void schedule_processing_crash(int site, sim::SimTime at);
  /// WAN partition: the cloud is unreachable but alive.
  void schedule_wan_partition(sim::SimTime start, sim::SimTime duration);
  /// Random sensor churn (crash + self-recovery) across all sites.
  void schedule_sensor_churn(sim::SimTime from, sim::SimTime until,
                             sim::SimTime mean_interarrival,
                             sim::SimTime downtime);

  // --- Results -------------------------------------------------------------
  [[nodiscard]] ResilienceReport report(sim::SimTime from,
                                        sim::SimTime to) const {
    return system_.resilience().report(from, to);
  }
  [[nodiscard]] std::uint64_t manual_repairs() const {
    return manual_repairs_;
  }
  [[nodiscard]] std::uint64_t autonomous_actions() const;
  /// Privacy leaks = policy denials that were not enforced (data left
  /// anyway) — zero is the ML4 target.
  [[nodiscard]] std::uint64_t privacy_leaks() const;
  [[nodiscard]] std::uint64_t privacy_blocked() const {
    return policy_ ? policy_->blocked() : 0;
  }
  /// Requirements guarded by a formal runtime monitor.
  [[nodiscard]] std::size_t monitored_requirements() const {
    return monitored_requirements_;
  }

  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }

 private:
  void build_fleet();
  void build_silo();
  void build_cloud();
  void build_edge();
  void build_resilient();
  void add_probes();
  void wire_site_failover(Site& site, membership::SwimMember& gateway_swim,
                          net::NodeId edge_swim);
  void do_failover(Site& site);

  // Shared site wiring (see the header comment).
  void attach_actuator(Site& site);
  /// `name` is the prefix of the processor's name: "proc-" or "proc2-".
  /// An active processor becomes the site's primary, a passive one its
  /// standby.
  ProcessorNode& attach_processor(Site& site, device::DeviceId host,
                                  std::string_view name, bool active);
  /// A MAPE loop on `host` whose actions the executor applies to `served`.
  adapt::MapeLoop& add_loop(device::DeviceId host, std::span<Site> served);
  void execute(adapt::MapeLoop& loop, std::span<Site> served,
               const adapt::Action& action);
  void add_watchdog(adapt::MapeLoop& loop, adapt::RuleBasedPlanner& planner,
                    Site& site, const char* detail);
  void add_freshness_monitor(adapt::MapeLoop& loop, Site& site);

  IoTSystem& system_;
  MaturityLevel level_;
  MaturityConfig cfg_;
  std::vector<Site> sites_;
  device::DeviceId cloud_;
  std::vector<adapt::MapeLoop*> loops_;  // every loop the level built
  std::uint64_t archived_ = 0;           // items at cloud archiver
  std::unique_ptr<data::PolicyEngine> policy_;
  std::unique_ptr<data::LineageGraph> lineage_;
  std::uint64_t manual_repairs_ = 0;
  std::size_t monitored_requirements_ = 0;
  bool installed_ = false;

 public:
  [[nodiscard]] std::uint64_t archived_items() const { return archived_; }
};

}  // namespace riot::core
