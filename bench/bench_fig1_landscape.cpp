// Figure 1 — the software-defined IoT landscape.
//
// Figure 1 sketches cloud, edge and device entities across administrative
// domains, with decentralized coordination and data exchange. This bench
// instantiates that landscape at scale — a configurable number of sites,
// each its own administrative domain with an edge, a gateway, sensors and
// an actuator, plus one cloud — and measures, as WAN quality degrades,
// how much of the system's functionality each coordination style retains:
//
//   cloud-coordinated : services bound through the cloud broker
//   edge-coordinated  : services bound through site-local relays (ML4)
//
// Expected shape: edge coordination keeps intra-domain service alive at
// 100% regardless of WAN loss; cloud coordination decays with WAN quality
// and dies entirely under partition.
#include "bench_util.hpp"
#include "core/maturity.hpp"

using namespace riot;

namespace {

struct Outcome {
  double freshness_sat = 0.0;
  double actuation_sat = 0.0;
  std::uint64_t messages = 0;
};

Outcome run(core::MaturityLevel level, double wan_loss, bool partition,
            int sites) {
  core::IoTSystem system(core::SystemConfig{.seed = 7});
  core::MaturityScenario scenario(system, level, {.sites = sites});
  scenario.install();
  // Degrade the WAN only: raise ambient loss on links to/from the cloud by
  // overriding the latency-class losses.
  if (wan_loss > 0.0) {
    // Ambient loss applies to every link; emulate WAN-only degradation by
    // partitioning in the extreme case and by ambient loss scaled down for
    // the shared medium otherwise. For WAN-only precision we override the
    // per-pair links to the cloud.
    for (const auto& d : system.registry().devices()) {
      if (!d.node.valid()) continue;
      for (const auto& other : system.registry().devices()) {
        if (!other.node.valid()) continue;
        const bool crosses_wan =
            (d.cls == device::DeviceClass::kCloud) !=
            (other.cls == device::DeviceClass::kCloud);
        if (crosses_wan) {
          auto q = system.network().link_quality(d.node, other.node);
          q.loss = wan_loss;
          system.network().set_link(d.node, other.node, q);
        }
      }
    }
  }
  if (partition) {
    scenario.schedule_wan_partition(sim::seconds(30), sim::minutes(3));
  }
  system.run_for(sim::minutes(3));
  const auto report = scenario.report(sim::seconds(40), sim::minutes(3));
  Outcome outcome;
  outcome.messages = system.network().messages_sent();
  double fresh = 1.0, act = 1.0;
  for (const auto& [name, sat] : report.per_requirement) {
    if (name.rfind("freshness", 0) == 0) fresh = std::min(fresh, sat);
    if (name.rfind("actuation", 0) == 0) act = std::min(act, sat);
  }
  outcome.freshness_sat = fresh;
  outcome.actuation_sat = act;
  return outcome;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 1: landscape — in-domain service vs WAN degradation",
      "3 administrative domains (sites) + cloud provider. Worst-site\n"
      "requirement satisfaction as the WAN to the cloud degrades.\n"
      "cloud = ML2 funnel architecture, edge = ML4 decentralized.");

  bench::BenchReport report("bench_fig1_landscape");
  report.config("seed", 7.0);
  bench::Table table({"wan_state", "coordination", "freshness", "actuation",
                      "msgs"});
  table.tee_to(report);
  table.print_header();
  struct WanState {
    const char* name;
    double loss;
    bool partition;
  };
  // Sensor redundancy (5 per site) rides out moderate loss — the knee of
  // the cloud curve sits at very high loss, then partition kills it.
  const WanState states[] = {{"healthy", 0.0, false},
                             {"loss=30%", 0.30, false},
                             {"loss=60%", 0.60, false},
                             {"loss=90%", 0.90, false},
                             {"loss=98%", 0.98, false},
                             {"partitioned", 0.0, true}};
  for (const auto& state : states) {
    for (const auto level :
         {core::MaturityLevel::kCloud, core::MaturityLevel::kResilient}) {
      const auto outcome = run(level, state.loss, state.partition, 3);
      table.print_row({state.name,
                       level == core::MaturityLevel::kCloud ? "cloud" : "edge",
                       bench::fmt(outcome.freshness_sat),
                       bench::fmt(outcome.actuation_sat),
                       bench::fmt_u(outcome.messages)});
    }
  }

  std::printf(
      "\nScale sweep (healthy WAN): worst-site satisfaction by fleet size\n");
  bench::Table scale({"sites", "devices", "coordination", "freshness",
                      "actuation"});
  scale.tee_to(report);
  scale.print_header();
  for (const int sites : {2, 4, 8, 16}) {
    for (const auto level :
         {core::MaturityLevel::kCloud, core::MaturityLevel::kResilient}) {
      const auto outcome = run(level, 0.0, false, sites);
      scale.print_row({bench::fmt_u(static_cast<std::uint64_t>(sites)),
                       bench::fmt_u(static_cast<std::uint64_t>(sites * 8 + 1)),
                       level == core::MaturityLevel::kCloud ? "cloud" : "edge",
                       bench::fmt(outcome.freshness_sat),
                       bench::fmt(outcome.actuation_sat)});
    }
  }
  return report.write() ? 0 : 1;
}
